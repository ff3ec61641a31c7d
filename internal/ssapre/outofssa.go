package ssapre

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
)

// outOfSSA converts the function back to executable (non-SSA) form:
//
//   - every version of a register symbol becomes its own symbol (version 0
//     keeps the original symbol, so parameters stay intact);
//   - PRE temporaries are coalesced: all of their versions share the one
//     register, keeping the ld.a / ld.c ALAT register key stable;
//   - register phis become (parallel) copies at the ends of predecessors
//     (critical edges were split before renaming);
//   - phis of memory-resident and virtual symbols are analysis-only and
//     are dropped; chi/mu lists are cleared.
func outOfSSA(fn *ir.Func, coalesce map[*ir.Sym]bool) {
	type sv = core.SymVer
	mapped := map[sv]*ir.Sym{}
	symFor := func(s *ir.Sym, ver int) *ir.Sym {
		if s.InMemory() || s.Kind == ir.SymVirtual || s.Kind == ir.SymGlobal {
			return s
		}
		if coalesce[s] || ver == 0 {
			return s
		}
		k := sv{Sym: s, Ver: ver}
		if m, ok := mapped[k]; ok {
			return m
		}
		m := fn.NewSym(fmt.Sprintf("%s.%d", s.Name, ver), s.Type, ir.SymTemp)
		mapped[k] = m
		return m
	}
	// fixRef rewrites the ref in place: refs are never shared between
	// distinct operand positions after renaming, and the rewrite is
	// idempotent anyway (once Ver is 0, symFor maps the sym to itself).
	fixRef := func(r *ir.Ref) *ir.Ref {
		if r == nil {
			return nil
		}
		r.Sym = symFor(r.Sym, r.Ver)
		r.Ver = 0
		return r
	}
	fixOp := func(op ir.Operand) ir.Operand {
		if r, ok := op.(*ir.Ref); ok {
			return fixRef(r)
		}
		return op
	}

	// 1. rewrite statement operands and destinations
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				t.Dst = fixRef(t.Dst)
				t.A = fixOp(t.A)
				if t.B != nil {
					t.B = fixOp(t.B)
				}
				t.Mus = nil
				t.Chis = nil
			case *ir.IStore:
				t.Addr = fixOp(t.Addr)
				t.Val = fixOp(t.Val)
				t.Chis = nil
				t.VV = nil
			case *ir.Call:
				for i := range t.Args {
					t.Args[i] = fixOp(t.Args[i])
				}
				if t.Dst != nil {
					t.Dst = fixRef(t.Dst)
				}
				t.Mus = nil
				t.Chis = nil
			case *ir.Print:
				for i := range t.Args {
					t.Args[i] = fixOp(t.Args[i])
				}
			}
		}
		if b.Term.Cond != nil {
			b.Term.Cond = fixOp(b.Term.Cond)
		}
		if b.Term.Val != nil {
			b.Term.Val = fixOp(b.Term.Val)
		}
	}

	// 2. phis of register symbols become parallel copies on the incoming
	//    edges; phis of memory/virtual symbols vanish
	edgeCopies := map[*ir.Block][][]copyOp{} // pred -> copy groups per succ
	for _, b := range fn.Blocks {
		for _, phi := range b.Phis {
			s := phi.Sym
			if s.InMemory() || s.Kind == ir.SymVirtual || s.Kind == ir.SymGlobal {
				continue
			}
			dst := symFor(s, phi.Ver)
			for j, pred := range b.Preds {
				src := symFor(phi.Args[j].Sym, phi.Args[j].Ver)
				if src == dst {
					continue
				}
				if edgeCopies[pred] == nil {
					edgeCopies[pred] = make([][]copyOp, len(pred.Succs))
				}
				k := pred.SuccIndex(b)
				edgeCopies[pred][k] = append(edgeCopies[pred][k], copyOp{dst: dst, src: src})
			}
		}
		b.Phis = nil
	}

	// 3. sequentialize each edge's parallel copy group and append it to
	//    the predecessor (critical edges are split, so a pred with copies
	//    for one successor has only that successor or the copies commute)
	for _, pred := range fn.Blocks {
		for _, group := range edgeCopies[pred] {
			if len(group) == 0 {
				continue
			}
			for _, c := range sequentialize(fn, group) {
				pred.Stmts = append(pred.Stmts, fn.NewAssign(ir.Assign{
					Dst: fn.NewRef(c.dst, 0), RK: ir.RHSCopy, A: fn.NewRef(c.src, 0),
				}))
			}
		}
	}
}

// copyOp is one dst := src register copy of a parallel copy group.
type copyOp struct{ dst, src *ir.Sym }

// sequentialize orders a parallel copy group so that no source is read
// after being overwritten, introducing a scratch temp to break cycles.
func sequentialize(fn *ir.Func, group []copyOp) []copyOp {
	pending := append([]copyOp(nil), group...)
	var out []copyOp
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			c := pending[i]
			// safe to emit if no other pending copy reads c.dst
			blocked := false
			for j, other := range pending {
				if j != i && other.src == c.dst {
					blocked = true
					break
				}
			}
			if !blocked {
				out = append(out, c)
				pending = append(pending[:i], pending[i+1:]...)
				progress = true
				i--
			}
		}
		if !progress {
			// cycle: break it with a scratch temp
			c := pending[0]
			scratch := fn.NewSym(c.dst.Name+".swap", c.dst.Type, ir.SymTemp)
			out = append(out, copyOp{dst: scratch, src: c.src})
			pending[0] = copyOp{dst: c.dst, src: scratch}
			// after saving src, retarget readers of c.dst? not needed:
			// saving src breaks the dependency for this copy only; the
			// loop makes progress because pending[0].src (scratch) is
			// not any pending dst
		}
	}
	return out
}
