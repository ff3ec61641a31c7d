package specheck

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Layer 3: speculative-leak taint analysis on the generated machine
// code. The paper's data speculation executes loads before their safety
// is known, which is exactly the shape of a Spectre-style leak: a
// speculatively-loaded, not-yet-checked value that reaches an address
// computation (the address operand of a load or store) or a branch
// condition influences microarchitectural state — the cache, the
// predictor — before the ld.c that would repair a mis-speculation
// retires. Layer 2 asks "is every speculative value eventually
// checked?"; Layer 3 asks the stricter, security-flavoured question
// "can a speculative value steer memory traffic or control flow BEFORE
// its check?".
//
// The analysis extends Layer 2's per-register provider/validated/
// crossed lattice (reusing its transfer function and fixpoint
// machinery) with two facts:
//
//   - poisoned (may, OR-meet): the register holds a value data-derived
//     (through moves, ALU, comparisons, conversions — "laundered
//     through arithmetic") from a speculative value that was live past
//     a potentially-aliasing store with no check since. Poison survives
//     a later ld.c on the origin register: the derivation already
//     consumed the possibly-stale value.
//   - origin (per-register): the instruction index of the tainting
//     advanced load, carried along for the leak report.
//
// A register is "speculative-stale" at a point when Layer 2's
// provider ∧ crossed ∧ ¬validated holds: its value came from an
// ALAT-allocating load, some store (or call) has crossed since, and no
// check has confirmed it. Values consumed before any crossing store
// are architecturally committed (the advanced load executed at the
// first occurrence's original position), so they neither leak nor
// poison — this keeps the analysis clean on every bundled workload
// under every speculation mode, where post-store consumptions of the
// web register all go through the ld.c first. Legitimate compiler
// output CAN still leak: fuzzing surfaces programs where PRE moves
// both a load and arithmetic derived from it above a may-aliasing
// store and branches on the derived value before the check — a true
// positive, and exactly the code shape the hardening pass
// (internal/harden) exists to close. So Layer 3 is an opt-in security
// analysis, not part of the soundness gate: the compile pipeline
// enforces it only on hardened builds, where a residual leak is a
// compile error.
//
// A leak is reported when a sink — the address operand of any
// load-class instruction, the address operand of a store, or the
// condition register of a conditional branch — reads a register that
// is speculative-stale or poisoned.
//
// OpFence is the mitigation boundary (the hardening pass inserts it):
// a fence drains the pipeline, so by the time anything after it
// issues, the speculation window has closed. The transfer function
// models this as a commit: every provider register becomes validated
// and all poison clears. An ld.c clears the taint of its own register
// only.
//
// Unlike Layer 2's use-crosses-store rule, no web-has-check filter is
// applied: a check that exists but sits BELOW the sink is precisely
// the bug (a reordered or retargeted check), and restricting the rule
// to sinks — rather than every read — is what keeps it free of the
// false positives that forced the filter on Layer 2.

// Leak is one speculative-leak finding: a sink instruction reachable
// by a speculatively-loaded, never-validated value.
type Leak struct {
	// Fn is the containing function.
	Fn string
	// Load is the instruction index of the tainting advanced load.
	Load int
	// Sink is the instruction index of the leaking sink.
	Sink int
	// Reg is the register the sink reads the tainted value from.
	Reg int
	// Kind is "address" (load/store address operand) or "branch"
	// (conditional-branch condition).
	Kind string
	// PathLen is the layout distance |Sink-Load| in instructions, a
	// proxy for the length of the unchecked path.
	PathLen int
	// Direct reports that the sink reads the provider register itself
	// (hoistable: a duplicate check can validate it in place) rather
	// than a value laundered through arithmetic.
	Direct bool
}

func (l Leak) String() string {
	return fmt.Sprintf("%s: %s sink @%d reads r%d tainted by advanced load @%d (path %d)",
		l.Fn, l.Kind, l.Sink, l.Reg, l.Load, l.PathLen)
}

// taintState is Layer 3's dataflow fact: the Layer 2 base lattice plus
// may-poison and taint origins.
type taintState struct {
	base   *regState
	poison []bool
	origin []int32 // tainting advanced-load index, -1 when untainted
}

func newTaintState(n int) *taintState {
	t := &taintState{
		base:   newRegState(n),
		poison: make([]bool, n),
		origin: make([]int32, n),
	}
	for i := range t.origin {
		t.origin[i] = -1
	}
	return t
}

// copyFrom overwrites s with o (same register count).
func (s *taintState) copyFrom(o *taintState) {
	s.base.copyFrom(o.base)
	copy(s.poison, o.poison)
	copy(s.origin, o.origin)
}

// meet joins o into s: base meets per Layer 2 (provider/validated AND,
// crossed OR), poison ORs (a leak on some path is a leak), origins take
// the smallest known index (deterministic under any join order).
func (s *taintState) meet(o *taintState) bool {
	changed := s.base.meet(o.base)
	for i := range s.poison {
		if !s.poison[i] && o.poison[i] {
			s.poison[i] = true
			changed = true
		}
		if o.origin[i] >= 0 && (s.origin[i] < 0 || o.origin[i] < s.origin[i]) {
			s.origin[i] = o.origin[i]
			changed = true
		}
	}
	return changed
}

// specStale reports whether register r holds a speculative value no
// check has confirmed since it crossed a store: Layer 2's
// provider ∧ crossed ∧ ¬validated.
func (s *taintState) specStale(r int) bool {
	return s.base.provider[r] && s.base.crossed[r] && !s.base.validated[r]
}

// tainted reports whether a sink reading r leaks.
func (s *taintState) tainted(r int) bool {
	return s.specStale(r) || s.poison[r]
}

// propagatesTaint reports whether in computes its destination from its
// register sources (moves, ALU, comparisons, conversions): the ops a
// tainted value launders through. Loads are excluded — their result
// comes from memory (the tainted ADDRESS is the sink, the loaded value
// is fresh) — as are lea/movi/alloc/arg/call, whose results carry no
// register-derived data.
func propagatesTaint(op machine.Opcode) bool {
	switch op {
	case machine.OpMov,
		machine.OpAdd, machine.OpSub, machine.OpMul, machine.OpDiv, machine.OpMod,
		machine.OpAnd, machine.OpOr, machine.OpXor, machine.OpShl, machine.OpShr,
		machine.OpNeg, machine.OpNot,
		machine.OpFAdd, machine.OpFSub, machine.OpFMul, machine.OpFDiv, machine.OpFNeg,
		machine.OpCmpEQ, machine.OpCmpNE, machine.OpCmpLT, machine.OpCmpLE,
		machine.OpCmpGT, machine.OpCmpGE,
		machine.OpFCmpEQ, machine.OpFCmpNE, machine.OpFCmpLT, machine.OpFCmpLE,
		machine.OpFCmpGT, machine.OpFCmpGE,
		machine.OpI2F, machine.OpF2I:
		return true
	}
	return false
}

// taintTransfer applies instruction i (at index idx) to the state in
// place: taint generation/propagation against the pre-state, then the
// Layer 2 base transfer, then the def's poison/origin update.
func taintTransfer(s *taintState, in machine.Instr, idx int) {
	// evaluate sources against the PRE-state: does the def inherit taint?
	derived := false
	var derivedFrom int32 = -1
	if propagatesTaint(in.Op) {
		for _, r := range instrReads(in) {
			if r < 0 || r >= len(s.poison) {
				continue
			}
			if s.tainted(r) {
				derived = true
				if o := s.origin[r]; o >= 0 && (derivedFrom < 0 || o < derivedFrom) {
					derivedFrom = o
				}
			}
		}
	}

	transfer(s.base, in)

	switch {
	case in.Op == machine.OpFence:
		// the barrier closes the speculation window: everything in
		// flight commits before anything after the fence issues
		for r := range s.base.provider {
			if s.base.provider[r] {
				s.base.validated[r] = true
			}
			s.poison[r] = false
		}
	case isAdvanced(in.Op):
		s.poison[in.Rd] = false
		s.origin[in.Rd] = int32(idx)
	case isCheck(in.Op):
		// the check commits its own register; laundered copies made from
		// the unchecked value stay poisoned
		s.poison[in.Rd] = false
		s.origin[in.Rd] = -1
	default:
		if d := instrDef(in); d >= 0 {
			s.poison[d] = derived
			if derived {
				s.origin[d] = derivedFrom
			} else {
				s.origin[d] = -1
			}
		}
	}
}

// sinkReads returns the (register, kind) sink operands of in: address
// operands of loads and stores, and conditional-branch conditions.
func sinkReads(in machine.Instr) (reg int, kind string, ok bool) {
	switch in.Op {
	case machine.OpLd, machine.OpLdF, machine.OpLdA, machine.OpLdFA,
		machine.OpLdC, machine.OpLdFC, machine.OpLdS, machine.OpLdFS,
		machine.OpLdSA, machine.OpLdFSA:
		return in.Rs, "address", true
	case machine.OpSt, machine.OpStF:
		return in.Rd, "address", true
	case machine.OpBeqz, machine.OpBnez:
		return in.Rs, "branch", true
	}
	return 0, "", false
}

// taintFlow runs the Layer 3 fixpoint over fc.
func taintFlow(fc *machine.FuncCode, nregs int) *blockFlow[*taintState] {
	return solveFlow(fc, func() *taintState { return newTaintState(nregs) }, taintTransfer)
}

// findFuncLeaks reports fc's speculative leaks in instruction order.
func findFuncLeaks(fc *machine.FuncCode) []Leak {
	if len(fc.Instrs) == 0 {
		return nil
	}
	nregs := funcNumRegs(fc)
	var leaks []Leak
	taintFlow(fc, nregs).walk(func(i int, st *taintState) {
		r, kind, ok := sinkReads(fc.Instrs[i])
		if !ok || r < 0 || r >= nregs || !st.tainted(r) {
			return
		}
		load := int(st.origin[r])
		dist := i - load
		if dist < 0 {
			dist = -dist
		}
		leaks = append(leaks, Leak{
			Fn: fc.Name, Load: load, Sink: i, Reg: r, Kind: kind,
			PathLen: dist, Direct: st.specStale(r),
		})
	})
	return leaks
}

// FindLeaks runs the Layer 3 taint analysis over every function of the
// generated program and returns all speculative leaks, ordered by
// function name then sink index. It is pure analysis: the program is
// not modified.
func FindLeaks(code *machine.Program) []Leak {
	var leaks []Leak
	names := make([]string, 0, len(code.Funcs))
	for name := range code.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		leaks = append(leaks, findFuncLeaks(code.Funcs[name])...)
	}
	return leaks
}

// CheckLeaks wraps FindLeaks as specheck Violations (rule
// "speculative-leak"), for the VerifyPasses pipeline hook.
func CheckLeaks(code *machine.Program, pass string) []Violation {
	leaks := FindLeaks(code)
	if len(leaks) == 0 {
		return nil
	}
	vs := make([]Violation, 0, len(leaks))
	for _, l := range leaks {
		fc := code.Funcs[l.Fn]
		vs = append(vs, Violation{
			Pass: pass, Func: l.Fn, Block: -1, Instr: l.Sink,
			Rule: "speculative-leak",
			Msg: fmt.Sprintf("[%s] %s sink reads r%d: speculative value from advanced load @%d [%s] with no check before the sink (path %d)",
				fc.Instrs[l.Sink], l.Kind, l.Reg, l.Load, fc.Instrs[l.Load], l.PathLen),
		})
	}
	return vs
}

// ProviderAt reports, per instruction index, whether reg holds a
// provider value (an ALAT-allocating load's result, possibly since
// checked) at entry to that instruction, per Layer 2's flow states.
// provider is AND-met, so true means EVERY path to that point carries
// the web — the hardening pass uses this to hoist a duplicate check
// across loop back-edges. Unreachable instructions report false.
func ProviderAt(fc *machine.FuncCode, reg int) []bool {
	n := len(fc.Instrs)
	prov := make([]bool, n)
	if n == 0 {
		return prov
	}
	nregs := funcNumRegs(fc)
	if reg < 0 || reg >= nregs {
		return prov
	}
	regFlow(fc, nregs).walk(func(i int, st *regState) {
		prov[i] = st.provider[reg]
	})
	return prov
}

// UncheckedSpecSites returns the indices of fc's check loads whose
// in-state is speculative-stale on the checked register — the points
// where the value is provider ∧ crossed ∧ ¬validated the instant
// before its ld.c retires. A consumer reordered above such a check (or
// the check's deletion) produces a leak; the mutation harness and the
// experiment's leak seeding enumerate sites from this.
func UncheckedSpecSites(fc *machine.FuncCode) []int {
	if len(fc.Instrs) == 0 {
		return nil
	}
	nregs := funcNumRegs(fc)
	var sites []int
	regFlow(fc, nregs).walk(func(i int, st *regState) {
		instr := fc.Instrs[i]
		if !isCheck(instr.Op) {
			return
		}
		r := instr.Rd
		if r >= 0 && r < nregs && st.provider[r] && st.crossed[r] && !st.validated[r] {
			sites = append(sites, i)
		}
	})
	return sites
}
