package specheck

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Layer 2: check-coverage dataflow on the generated machine code. The
// lattice tracks, per virtual register, two facts joined over all CFG
// paths into each instruction:
//
//   - provider (must, AND-meet): on every path, the register's current
//     value was produced by an ALAT-allocating instruction (ld.a/ld.sa)
//     or revalidated by a check (ld.c) with no ordinary redefinition
//     since;
//   - validated (must, AND-meet): on every path, a check load has
//     confirmed (or recovered) the register's value since its advanced
//     load — the value is architecturally committed, not speculative;
//   - crossed (may, OR-meet): on some path since the provider, a
//     potentially-aliasing store or a call (whose callee may store)
//     executed, so the ALAT entry may be gone and the register may hold a
//     stale speculative value.
//
// Two rules are enforced at the fixpoint:
//
//   - check-without-provider: an ld.c must have a must-reaching advanced
//     load (or earlier check) in its register — otherwise it validates an
//     entry that was never allocated on some path;
//   - use-crosses-store: reading a register while provider ∧ crossed ∧
//     ¬validated consumes a possibly-stale speculative value that no
//     check ever confirmed — the exact hole a deleted or retargeted
//     check opens. The rule fires only when the register's whole web
//     has no ld.c anywhere in the function (see below).
//
// The ¬validated term is what makes the rule precise enough for real
// PRE output: once an ld.c has run, the register holds a correct,
// committed value, and a later reuse of it across a store is the alias
// analysis' no-alias claim (verified at the IR layer against the χ
// lists), not a speculation claim. Without that term, any value that is
// checked once and then legitimately reused past a provably-disjoint
// store (e.g. a direct store to a different global) would be a false
// positive — the fuzzer finds such programs readily.
//
// The no-check-in-web condition handles the remaining precision gap:
// this layer sees stores, not alias classes, so it cannot tell a
// disjoint store from an aliasing one. PRE legitimately emits webs
// where only one of several joining paths needs a check (the others
// never cross an aliasing store), and a path-sensitive all-stores rule
// flags those. What it CAN decide without alias information: a web
// whose advanced load crosses any store on the way to a use and that
// contains no check at all is definitely broken, because speculative
// PRE always converts the eliminated occurrence that motivated the
// ld.a into an ld.c. That is precisely the shape check deletion
// produces. Misplaced-but-present checks are the IR layer's
// jurisdiction (flag re-derivation against the χ lists), and
// scheduler-induced reorderings are CheckSchedule's.
//
// The ALAT is frame-tagged in the VM (a callee cannot satisfy a caller's
// check), so the analysis is safely intraprocedural; calls are modeled as
// potential stores. Allocations and prints do not invalidate ALAT
// entries (mirroring the VM) and so do not set crossed.

// regState is the dataflow fact at one instruction.
type regState struct {
	provider  []bool // must: ALAT entry allocated for this register's value
	validated []bool // must: an ld.c confirmed the value since its ld.a
	crossed   []bool // may: a store/call happened since the provider
}

func newRegState(n int) *regState {
	return &regState{
		provider:  make([]bool, n),
		validated: make([]bool, n),
		crossed:   make([]bool, n),
	}
}

// copyFrom overwrites s with o (same register count).
func (s *regState) copyFrom(o *regState) {
	copy(s.provider, o.provider)
	copy(s.validated, o.validated)
	copy(s.crossed, o.crossed)
}

// meet joins o into s (provider/validated AND, crossed OR); reports change.
func (s *regState) meet(o *regState) bool {
	changed := false
	for i := range s.provider {
		if s.provider[i] && !o.provider[i] {
			s.provider[i] = false
			changed = true
		}
		if s.validated[i] && !o.validated[i] {
			s.validated[i] = false
			changed = true
		}
		if !s.crossed[i] && o.crossed[i] {
			s.crossed[i] = true
			changed = true
		}
	}
	return changed
}

// instrSuccs computes the intra-function CFG at instruction granularity.
func instrSuccs(fc *machine.FuncCode) [][]int {
	n := len(fc.Instrs)
	succs := make([][]int, n)
	for i, in := range fc.Instrs {
		switch in.Op {
		case machine.OpBr:
			succs[i] = []int{in.Target}
		case machine.OpBeqz, machine.OpBnez:
			if i+1 < n {
				succs[i] = []int{i + 1, in.Target}
			} else {
				succs[i] = []int{in.Target}
			}
		case machine.OpRet, machine.OpHalt:
			// no successors
		default:
			if i+1 < n {
				succs[i] = []int{i + 1}
			}
		}
	}
	return succs
}

// instrReads lists the registers an instruction reads.
func instrReads(in machine.Instr) []int {
	switch in.Op {
	case machine.OpMov,
		machine.OpLd, machine.OpLdF, machine.OpLdA, machine.OpLdFA,
		machine.OpLdC, machine.OpLdFC, machine.OpLdS, machine.OpLdFS,
		machine.OpLdSA, machine.OpLdFSA,
		machine.OpNeg, machine.OpNot, machine.OpFNeg,
		machine.OpI2F, machine.OpF2I,
		machine.OpAlloc, machine.OpArg,
		machine.OpBeqz, machine.OpBnez:
		return []int{in.Rs}
	case machine.OpSt, machine.OpStF:
		// Rd is the address register, Rs the stored value — both reads
		return []int{in.Rd, in.Rs}
	case machine.OpAdd, machine.OpSub, machine.OpMul, machine.OpDiv, machine.OpMod,
		machine.OpAnd, machine.OpOr, machine.OpXor, machine.OpShl, machine.OpShr,
		machine.OpFAdd, machine.OpFSub, machine.OpFMul, machine.OpFDiv,
		machine.OpCmpEQ, machine.OpCmpNE, machine.OpCmpLT, machine.OpCmpLE,
		machine.OpCmpGT, machine.OpCmpGE,
		machine.OpFCmpEQ, machine.OpFCmpNE, machine.OpFCmpLT, machine.OpFCmpLE,
		machine.OpFCmpGT, machine.OpFCmpGE:
		return []int{in.Rs, in.Rt}
	case machine.OpRet:
		if in.Rs >= 0 {
			return []int{in.Rs}
		}
	case machine.OpCall, machine.OpPrint:
		return in.ArgRegs
	}
	return nil
}

// instrDef returns the register an instruction writes, or -1.
func instrDef(in machine.Instr) int {
	switch in.Op {
	case machine.OpMovI, machine.OpMov, machine.OpLEA,
		machine.OpLd, machine.OpLdF, machine.OpLdA, machine.OpLdFA,
		machine.OpLdC, machine.OpLdFC, machine.OpLdS, machine.OpLdFS,
		machine.OpLdSA, machine.OpLdFSA,
		machine.OpAdd, machine.OpSub, machine.OpMul, machine.OpDiv, machine.OpMod,
		machine.OpAnd, machine.OpOr, machine.OpXor, machine.OpShl, machine.OpShr,
		machine.OpNeg, machine.OpNot,
		machine.OpFAdd, machine.OpFSub, machine.OpFMul, machine.OpFDiv, machine.OpFNeg,
		machine.OpCmpEQ, machine.OpCmpNE, machine.OpCmpLT, machine.OpCmpLE,
		machine.OpCmpGT, machine.OpCmpGE,
		machine.OpFCmpEQ, machine.OpFCmpNE, machine.OpFCmpLT, machine.OpFCmpLE,
		machine.OpFCmpGT, machine.OpFCmpGE,
		machine.OpI2F, machine.OpF2I,
		machine.OpAlloc:
		return in.Rd
	case machine.OpCall, machine.OpArg:
		if in.Rd >= 0 {
			return in.Rd
		}
	}
	return -1
}

func isAdvanced(op machine.Opcode) bool {
	switch op {
	case machine.OpLdA, machine.OpLdFA, machine.OpLdSA, machine.OpLdFSA:
		return true
	}
	return false
}

func isCheck(op machine.Opcode) bool {
	return op == machine.OpLdC || op == machine.OpLdFC
}

// transfer applies one instruction to the state in place.
func transfer(s *regState, in machine.Instr) {
	switch {
	case isAdvanced(in.Op):
		// an advanced load allocates a fresh ALAT entry; the value is
		// speculative until an ld.c confirms it
		s.provider[in.Rd] = true
		s.validated[in.Rd] = false
		s.crossed[in.Rd] = false
	case isCheck(in.Op):
		// a check revalidates (or reloads and re-inserts) the entry —
		// from here the register holds a committed value
		s.provider[in.Rd] = true
		s.validated[in.Rd] = true
		s.crossed[in.Rd] = false
	case in.Op == machine.OpSt || in.Op == machine.OpStF || in.Op == machine.OpCall:
		// a store may invalidate any ALAT entry; a call may execute
		// stores in the callee
		for r := range s.provider {
			if s.provider[r] {
				s.crossed[r] = true
			}
		}
		if in.Op == machine.OpCall {
			if d := instrDef(in); d >= 0 {
				s.provider[d] = false
				s.validated[d] = false
				s.crossed[d] = false
			}
		}
	default:
		if d := instrDef(in); d >= 0 {
			s.provider[d] = false
			s.validated[d] = false
			s.crossed[d] = false
		}
	}
}

// CheckMachine runs the check-coverage dataflow over every function of
// the generated program and reports the violations described in the
// package comment. It is pure analysis: the program is not modified.
func CheckMachine(code *machine.Program, pass string) []Violation {
	var vs []Violation
	names := make([]string, 0, len(code.Funcs))
	for name := range code.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs = append(vs, checkFuncCode(code.Funcs[name], pass)...)
	}
	return vs
}

// funcNumRegs returns the effective register-file size of fc: the
// declared NumRegs widened to cover any out-of-range register index an
// instruction mentions (a retargeted check can point outside the file).
func funcNumRegs(fc *machine.FuncCode) int {
	nregs := fc.NumRegs
	maxReg := func(in machine.Instr) int {
		m := instrDef(in)
		for _, r := range instrReads(in) {
			if r > m {
				m = r
			}
		}
		return m
	}
	for _, in := range fc.Instrs {
		if m := maxReg(in); m >= nregs {
			nregs = m + 1
		}
	}
	return nregs
}

// regFlow runs the Layer 2 forward dataflow to its fixpoint. Layer 3
// and the mutation/hardening site enumeration reuse it.
func regFlow(fc *machine.FuncCode, nregs int) *blockFlow[*regState] {
	return solveFlow(fc, func() *regState { return newRegState(nregs) },
		func(s *regState, in machine.Instr, _ int) { transfer(s, in) })
}

func checkFuncCode(fc *machine.FuncCode, pass string) []Violation {
	n := len(fc.Instrs)
	if n == 0 {
		return nil
	}
	nregs := funcNumRegs(fc)

	// hasCheck[r]: the function contains at least one ld.c targeting r —
	// the web-level evidence that PRE placed this register's checks (their
	// positions are judged by the IR layer, which has the alias classes)
	hasCheck := make([]bool, nregs)
	for _, in := range fc.Instrs {
		if isCheck(in.Op) && in.Rd >= 0 && in.Rd < nregs {
			hasCheck[in.Rd] = true
		}
	}

	var vs []Violation
	add := func(i int, rule, format string, args ...any) {
		vs = append(vs, Violation{
			Pass: pass, Func: fc.Name, Block: -1, Instr: i,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
	regFlow(fc, nregs).walk(func(i int, st *regState) {
		instr := fc.Instrs[i]
		for _, r := range instrReads(instr) {
			if r >= 0 && r < nregs && st.provider[r] && st.crossed[r] && !st.validated[r] && !hasCheck[r] {
				add(i, "use-crosses-store",
					"[%s] reads r%d: a speculative value whose ALAT entry may have been invalidated by an intervening store, with no check since", instr, r)
			}
		}
		if isCheck(instr.Op) && !st.provider[instr.Rd] {
			add(i, "check-without-provider",
				"[%s] checks r%d but no advanced load reaches it on every path", instr, instr.Rd)
		}
	})
	return vs
}
