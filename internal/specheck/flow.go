package specheck

import "repro/internal/machine"

// fact is a lattice element of a forward, instruction-level dataflow
// analysis over one function's machine code (Layer 2's regState,
// Layer 3's taintState).
type fact[S any] interface {
	copyFrom(S)
	meet(S) bool
}

// blockFlow is the fixpoint of a forward analysis, stored only at the
// entries of straight-line runs. Inside a run every instruction's only
// predecessor is the one before it, so walk recomputes an
// instruction's in-state by applying the transfer function forward
// from the run's entry, instead of the analysis keeping one state per
// instruction.
type blockFlow[S fact[S]] struct {
	fc       *machine.FuncCode
	newState func() S // the entry state; also scratch space
	transfer func(s S, in machine.Instr, idx int)
	// leader[i]: instruction i starts a run (the entry, or an
	// instruction with any predecessor other than a fall-through from
	// an instruction whose only successor it is)
	leader []bool
	// entry[i] is the in-state of reached leader i
	entry   []S
	reached []bool
}

// solveFlow runs the analysis to its fixpoint, starting from the state
// newState returns at instruction 0.
func solveFlow[S fact[S]](fc *machine.FuncCode, newState func() S, transfer func(S, machine.Instr, int)) *blockFlow[S] {
	n := len(fc.Instrs)
	f := &blockFlow[S]{fc: fc, newState: newState, transfer: transfer,
		leader: make([]bool, n), entry: make([]S, n), reached: make([]bool, n)}
	if n == 0 {
		return f
	}
	succs := instrSuccs(fc)
	preds := make([]int, n)
	for _, ss := range succs {
		for _, s := range ss {
			if s >= 0 && s < n {
				preds[s]++
			}
		}
	}
	for i := range f.leader {
		f.leader[i] = i == 0 || preds[i] != 1 || !fallsInto(succs[i-1], i)
	}
	f.entry[0], f.reached[0] = newState(), true
	out := newState() // scratch state, reused per visit
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		out.copyFrom(f.entry[i])
		for {
			transfer(out, fc.Instrs[i], i)
			if i+1 >= n || f.leader[i+1] {
				break
			}
			i++
		}
		for _, s := range succs[i] {
			if s < 0 || s >= n {
				continue
			}
			if !f.reached[s] {
				f.entry[s], f.reached[s] = newState(), true
				f.entry[s].copyFrom(out)
				work = append(work, s)
			} else if f.entry[s].meet(out) {
				work = append(work, s)
			}
		}
	}
	return f
}

// fallsInto reports whether an instruction with successors succs has
// exactly one, next.
func fallsInto(succs []int, next int) bool { return len(succs) == 1 && succs[0] == next }

// walk calls visit, in instruction order, with the in-state of every
// reached instruction. The state is scratch, overwritten as the walk
// advances; visit must not retain it.
func (f *blockFlow[S]) walk(visit func(i int, st S)) {
	cur := f.newState()
	live := false
	for i := range f.fc.Instrs {
		if f.leader[i] {
			live = f.reached[i]
			if live {
				cur.copyFrom(f.entry[i])
			}
		} else if live {
			f.transfer(cur, f.fc.Instrs[i-1], i-1)
		}
		if live {
			visit(i, cur)
		}
	}
}
