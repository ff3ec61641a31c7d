package specheck

import (
	"fmt"

	"repro/internal/ir"
)

// The schedule checker: the list scheduler's memory contract is that
// stores, calls, prints and allocations ("fences") stay ordered with
// every other memory operation, while loads may reorder freely among
// themselves between fences. A copy out of an ALAT register (the point
// where a speculative load's value is consumed) counts as a load, since
// moving an aliasing store across it would let a stale value escape the
// check. SnapshotMemOrder records the per-block memory-relevant
// statements before scheduling; CheckSchedule proves the scheduled
// program kept every fence in order and every load inside its original
// inter-fence segment.

// MemOrder is a per-block snapshot of memory-relevant statement identity,
// in program order.
type MemOrder map[*ir.Block][]ir.Stmt

// memKind classifies a statement for the schedule check.
type memKind int

const (
	memOther  memKind = iota // not memory-relevant
	kindLoad                 // may reorder with other loads, never cross a fence
	kindFence                // store, call, print, allocation: totally ordered
)

// stmtKind mirrors codegen's stmtMemClass: fences are direct and
// indirect stores, calls, prints and allocations; loads are indirect
// loads, reads of memory-resident scalars and copies out of ALAT
// registers.
func stmtKind(s ir.Stmt, alat map[*ir.Sym]bool) memKind {
	switch t := s.(type) {
	case *ir.Assign:
		if t.Dst.Sym.InMemory() {
			return kindFence
		}
		switch t.RK {
		case ir.RHSLoad:
			return kindLoad
		case ir.RHSAlloc:
			return kindFence
		case ir.RHSCopy:
			if r, ok := t.A.(*ir.Ref); ok && (r.Sym.InMemory() || alat[r.Sym]) {
				return kindLoad
			}
		}
		return memOther
	case *ir.IStore, *ir.Call, *ir.Print:
		return kindFence
	}
	return memOther
}

// alatRegs collects the destinations of advanced and check loads — the
// registers whose consuming copies are ordered with stores.
func alatRegs(fn *ir.Func) map[*ir.Sym]bool {
	regs := map[*ir.Sym]bool{}
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			if a, ok := s.(*ir.Assign); ok && (a.Spec.AdvLoad || a.Spec.CheckLoad) {
				regs[a.Dst.Sym] = true
			}
		}
	}
	return regs
}

// SnapshotMemOrder records the memory-relevant statement order of every
// block, to be compared against the program after scheduling.
func SnapshotMemOrder(prog *ir.Program) MemOrder {
	snap := MemOrder{}
	for _, f := range prog.Funcs {
		alat := alatRegs(f)
		for _, b := range f.Blocks {
			var seq []ir.Stmt
			for _, s := range b.Stmts {
				if stmtKind(s, alat) != memOther {
					seq = append(seq, s)
				}
			}
			if len(seq) > 0 {
				snap[b] = seq
			}
		}
	}
	return snap
}

// segment splits a memory-relevant sequence into its fence subsequence
// and, for every load, the index of the inter-fence segment it sits in
// (segment k = after the k-th fence).
func segment(seq []ir.Stmt, alat map[*ir.Sym]bool) (fences []ir.Stmt, loadSeg map[ir.Stmt]int) {
	loadSeg = map[ir.Stmt]int{}
	for _, s := range seq {
		if stmtKind(s, alat) == kindFence {
			fences = append(fences, s)
		} else {
			loadSeg[s] = len(fences)
		}
	}
	return fences, loadSeg
}

// CheckSchedule proves the scheduler honoured its memory contract in
// every block: the fences of each block appear exactly as snapshotted,
// in the snapshot's order, and every load stayed between the same two
// fences it started between. A load hoisted past an aliasing store
// without the AdvLoad protocol, or a store sunk past a check's consuming
// copy, lands in a different segment and is reported.
func CheckSchedule(prog *ir.Program, before MemOrder, pass string) []Violation {
	var vs []Violation
	for _, f := range prog.Funcs {
		alat := alatRegs(f)
		for _, b := range f.Blocks {
			var after []ir.Stmt
			for _, s := range b.Stmts {
				if stmtKind(s, alat) != memOther {
					after = append(after, s)
				}
			}
			add := func(rule, format string, args ...any) {
				vs = append(vs, Violation{
					Pass: pass, Func: f.Name, Block: b.ID, Instr: -1,
					Rule: rule, Msg: fmt.Sprintf(format, args...),
				})
			}
			want := before[b]
			if len(after) != len(want) {
				add("memory-op-count",
					"scheduling changed the number of memory operations (%d before, %d after)",
					len(want), len(after))
				continue
			}
			wantFences, wantSeg := segment(want, alat)
			gotFences, gotSeg := segment(after, alat)
			if len(wantFences) != len(gotFences) {
				add("memory-op-count",
					"scheduling changed the number of stores/barriers (%d before, %d after)",
					len(wantFences), len(gotFences))
				continue
			}
			fenceOK := true
			for i := range wantFences {
				if wantFences[i] != gotFences[i] {
					add("store-reordered",
						"scheduling reordered stores/barriers: position %d holds [%s], expected [%s]",
						i, gotFences[i], wantFences[i])
					fenceOK = false
					break
				}
			}
			if !fenceOK {
				continue
			}
			for s, seg := range wantSeg {
				got, ok := gotSeg[s]
				if !ok {
					add("memory-op-count", "load [%s] vanished from the block's memory order", s)
					continue
				}
				if got != seg {
					add("load-crossed-store",
						"scheduling moved load [%s] across a store or barrier (segment %d, was %d)",
						s, got, seg)
				}
			}
		}
	}
	return vs
}
