// Package core implements the speculative SSA form of Lin et al.
// (PLDI 2003): HSSA construction (phi insertion and renaming over real
// variables, virtual variables and heap pseudo-symbols, with chi/mu
// versioning), assignment of the speculation flags (chi_s / mu_s) from
// alias profiles (§3.2.1) or heuristic rules (§3.2.2), and the
// speculative use-def walk that later optimizations use to skip
// speculative weak updates.
package core

import (
	"repro/internal/ir"
)

// SymVer identifies one SSA version of a symbol.
type SymVer struct {
	Sym *ir.Sym
	Ver int
}

// DefKind classifies definition points.
type DefKind int

const (
	// DefEntry is the implicit definition of version 0 at function entry.
	DefEntry DefKind = iota
	// DefPhi is a phi node.
	DefPhi
	// DefStmt is a direct (strong) definition by a statement.
	DefStmt
	// DefChi is a may-definition through a chi.
	DefChi
)

// Def records where an SSA version is defined.
type Def struct {
	Kind  DefKind
	Block *ir.Block
	Phi   *ir.Phi
	Stmt  ir.Stmt
	Chi   *ir.Chi
}

// SSA is the per-function speculative SSA form: the renamed IR plus the
// def-site index that the speculative walk and SSAPRE consult.
type SSA struct {
	Fn  *ir.Func
	DT  *ir.DomTree
	Def map[SymVer]Def

	// Vars lists every symbol that was versioned in this function.
	Vars []*ir.Sym
}

// BuildSSA converts fn (with chi/mu lists already annotated) into HSSA
// form: phis are inserted for every variable with definitions, and all
// refs, mus and chis receive version numbers. virtuals lists the virtual
// symbols referenced by the function's chi/mu lists (from
// alias.Result.FuncVirtuals).
func BuildSSA(fn *ir.Func, virtuals []*ir.Sym) *SSA {
	fn.SplitCriticalEdges()
	dt := ir.BuildDomTree(fn)
	s := &SSA{Fn: fn, DT: dt}

	// 1. collect variables and their definition blocks
	varIdx := make(map[*ir.Sym]int32, 16+len(virtuals))
	var defBlocks [][]*ir.Block
	nDefs := 0 // definitions by statements and χs (sizes the Def index)
	note := func(sym *ir.Sym, b *ir.Block) {
		i, ok := varIdx[sym]
		if !ok {
			i = int32(len(s.Vars))
			varIdx[sym] = i
			s.Vars = append(s.Vars, sym)
			defBlocks = append(defBlocks, nil)
		}
		if b != nil {
			nDefs++
			// consecutive duplicates are common (several defs in one
			// block) and IteratedFrontier dedups anyway
			if db := defBlocks[i]; len(db) == 0 || db[len(db)-1] != b {
				defBlocks[i] = append(db, b)
			}
		}
	}
	noteUse := func(op ir.Operand) {
		if r, ok := op.(*ir.Ref); ok {
			note(r.Sym, nil)
		}
	}
	for _, v := range virtuals {
		note(v, nil)
	}
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				noteUse(t.A)
				if t.B != nil {
					noteUse(t.B)
				}
				for _, mu := range t.Mus {
					note(mu.Sym, nil)
				}
				note(t.Dst.Sym, b)
				for _, chi := range t.Chis {
					note(chi.Sym, b)
				}
			case *ir.IStore:
				noteUse(t.Addr)
				noteUse(t.Val)
				for _, chi := range t.Chis {
					note(chi.Sym, b)
				}
			case *ir.Call:
				for _, a := range t.Args {
					noteUse(a)
				}
				for _, mu := range t.Mus {
					note(mu.Sym, nil)
				}
				if t.Dst != nil {
					note(t.Dst.Sym, b)
				}
				for _, chi := range t.Chis {
					note(chi.Sym, b)
				}
			case *ir.Print:
				for _, a := range t.Args {
					noteUse(a)
				}
			}
		}
		if b.Term.Cond != nil {
			noteUse(b.Term.Cond)
		}
		if b.Term.Val != nil {
			noteUse(b.Term.Val)
		}
	}

	// 2. phi insertion at iterated dominance frontiers of the def sites
	var df []*ir.Block
	for vi, sym := range s.Vars {
		blocks := defBlocks[vi]
		if len(blocks) == 0 {
			continue
		}
		// IteratedFrontier computes DF+, which is closed under taking
		// frontiers of the inserted phis themselves.
		df = dt.IteratedFrontier(df[:0], blocks)
		for _, pb := range df {
			if hasPhiFor(pb, sym) {
				continue
			}
			phi := fn.NewPhi(ir.Phi{Sym: sym, Args: make([]*ir.Ref, len(pb.Preds))})
			for i := range phi.Args {
				phi.Args[i] = fn.NewRef(sym, 0)
			}
			pb.Phis = append(pb.Phis, phi)
			nDefs++
		}
	}
	s.Def = make(map[SymVer]Def, len(s.Vars)+nDefs)

	// 3. renaming along the dominator tree. Version stacks and counters
	// are indexed like s.Vars (step 1 noted every symbol the walk meets).
	// Version numbers are allocated per function, not on the Sym: globals
	// and virtual variables are shared by every function, and a counter
	// on the Sym itself would make numbering depend on the order
	// functions are renamed (and race when functions are renamed
	// concurrently). Versions only need to be unique within one
	// function's web.
	stacks := make([][]int, len(s.Vars))
	vers := make([]int, len(s.Vars))
	top := func(sym *ir.Sym) int {
		st := stacks[varIdx[sym]]
		if len(st) == 0 {
			return 0
		}
		return st[len(st)-1]
	}
	newVer := func(sym *ir.Sym) int {
		i := varIdx[sym]
		vers[i]++
		return vers[i]
	}
	for _, sym := range s.Vars {
		s.Def[SymVer{sym, 0}] = Def{Kind: DefEntry, Block: fn.Entry}
	}

	// pushed logs every push; a block pops back to its entry length
	var pushed []int32
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		mark := len(pushed)
		push := func(sym *ir.Sym, ver int) {
			i := varIdx[sym]
			stacks[i] = append(stacks[i], ver)
			pushed = append(pushed, i)
		}
		useRef := func(op ir.Operand) {
			if r, ok := op.(*ir.Ref); ok {
				r.Ver = top(r.Sym)
			}
		}
		for _, phi := range b.Phis {
			phi.Ver = newVer(phi.Sym)
			s.Def[SymVer{phi.Sym, phi.Ver}] = Def{Kind: DefPhi, Block: b, Phi: phi}
			push(phi.Sym, phi.Ver)
		}
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				useRef(t.A)
				if t.B != nil {
					useRef(t.B)
				}
				for _, mu := range t.Mus {
					mu.Ver = top(mu.Sym)
				}
				t.Dst.Ver = newVer(t.Dst.Sym)
				s.Def[SymVer{t.Dst.Sym, t.Dst.Ver}] = Def{Kind: DefStmt, Block: b, Stmt: st}
				push(t.Dst.Sym, t.Dst.Ver)
				for _, chi := range t.Chis {
					chi.OldVer = top(chi.Sym)
					chi.NewVer = newVer(chi.Sym)
					s.Def[SymVer{chi.Sym, chi.NewVer}] = Def{Kind: DefChi, Block: b, Stmt: st, Chi: chi}
					push(chi.Sym, chi.NewVer)
				}
			case *ir.IStore:
				useRef(t.Addr)
				useRef(t.Val)
				for _, chi := range t.Chis {
					chi.OldVer = top(chi.Sym)
					chi.NewVer = newVer(chi.Sym)
					s.Def[SymVer{chi.Sym, chi.NewVer}] = Def{Kind: DefChi, Block: b, Stmt: st, Chi: chi}
					push(chi.Sym, chi.NewVer)
				}
			case *ir.Call:
				for _, a := range t.Args {
					useRef(a)
				}
				for _, mu := range t.Mus {
					mu.Ver = top(mu.Sym)
				}
				if t.Dst != nil {
					t.Dst.Ver = newVer(t.Dst.Sym)
					s.Def[SymVer{t.Dst.Sym, t.Dst.Ver}] = Def{Kind: DefStmt, Block: b, Stmt: st}
					push(t.Dst.Sym, t.Dst.Ver)
				}
				for _, chi := range t.Chis {
					chi.OldVer = top(chi.Sym)
					chi.NewVer = newVer(chi.Sym)
					s.Def[SymVer{chi.Sym, chi.NewVer}] = Def{Kind: DefChi, Block: b, Stmt: st, Chi: chi}
					push(chi.Sym, chi.NewVer)
				}
			case *ir.Print:
				for _, a := range t.Args {
					useRef(a)
				}
			}
		}
		if b.Term.Cond != nil {
			useRef(b.Term.Cond)
		}
		if b.Term.Val != nil {
			useRef(b.Term.Val)
		}
		for _, succ := range b.Succs {
			j := succ.PredIndex(b)
			for _, phi := range succ.Phis {
				phi.Args[j].Ver = top(phi.Sym)
			}
		}
		for _, c := range dt.Children[b] {
			rename(c)
		}
		for _, i := range pushed[mark:] {
			stacks[i] = stacks[i][:len(stacks[i])-1]
		}
		pushed = pushed[:mark]
	}
	rename(fn.Entry)
	return s
}

func hasPhiFor(b *ir.Block, sym *ir.Sym) bool {
	for _, phi := range b.Phis {
		if phi.Sym == sym {
			return true
		}
	}
	return false
}
