package ir

import "fmt"

// Verify checks structural invariants of a function's CFG and statements.
// It returns the first violation found, or nil. It is used liberally in
// tests and after every transformation pass.
func Verify(f *Func) error {
	if f.Entry == nil {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	if !inFunc[f.Entry] {
		return fmt.Errorf("%s: entry block not in block list", f.Name)
	}
	for _, b := range f.Blocks {
		// terminator / successor agreement
		switch b.Term.Kind {
		case TermJump:
			if len(b.Succs) != 1 {
				return fmt.Errorf("%s B%d: jump with %d successors", f.Name, b.ID, len(b.Succs))
			}
		case TermCond:
			if len(b.Succs) != 2 {
				return fmt.Errorf("%s B%d: cond branch with %d successors", f.Name, b.ID, len(b.Succs))
			}
			if b.Term.Cond == nil {
				return fmt.Errorf("%s B%d: cond branch without condition", f.Name, b.ID)
			}
		case TermRet:
			if len(b.Succs) > 1 {
				return fmt.Errorf("%s B%d: return with %d successors", f.Name, b.ID, len(b.Succs))
			}
		}
		// edge symmetry
		for _, s := range b.Succs {
			if !inFunc[s] {
				return fmt.Errorf("%s B%d: successor B%d not in function", f.Name, b.ID, s.ID)
			}
			if s.PredIndex(b) < 0 {
				return fmt.Errorf("%s B%d: successor B%d lacks back pred edge", f.Name, b.ID, s.ID)
			}
		}
		for _, p := range b.Preds {
			if !inFunc[p] {
				return fmt.Errorf("%s B%d: pred B%d not in function", f.Name, b.ID, p.ID)
			}
			if p.SuccIndex(b) < 0 {
				return fmt.Errorf("%s B%d: pred B%d lacks forward succ edge", f.Name, b.ID, p.ID)
			}
		}
		// phi arity
		for _, phi := range b.Phis {
			if len(phi.Args) != len(b.Preds) {
				return fmt.Errorf("%s B%d: phi for %s has %d args, %d preds",
					f.Name, b.ID, phi.Sym.Name, len(phi.Args), len(b.Preds))
			}
		}
		// statement well-formedness
		for _, s := range b.Stmts {
			if err := verifyStmt(f, b, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func verifyStmt(f *Func, b *Block, s Stmt) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s B%d [%s]: %s", f.Name, b.ID, s, fmt.Sprintf(format, args...))
	}
	switch st := s.(type) {
	case *Assign:
		if st.Dst == nil || st.Dst.Sym == nil {
			return bad("assign without destination")
		}
		if st.A == nil {
			return bad("assign without first operand")
		}
		if st.RK == RHSBinary && st.B == nil {
			return bad("binary assign without second operand")
		}
		if st.RK == RHSLoad {
			if st.A.Type().Kind != KPtr && st.A.Type().Kind != KInt {
				return bad("load address has non-pointer type %s", st.A.Type())
			}
		}
	case *IStore:
		if st.Addr == nil || st.Val == nil {
			return bad("istore missing operands")
		}
	case *Call:
		if f.prog != nil {
			if _, ok := f.prog.FuncMap[st.Fn]; !ok && !IsBuiltin(st.Fn) {
				return bad("call to unknown function %q", st.Fn)
			}
		}
	}
	return nil
}

// IsBuiltin reports whether name is a runtime-provided function rather than
// a user-defined one.
func IsBuiltin(name string) bool {
	switch name {
	case "malloc", "print", "arg":
		return true
	}
	return false
}

// VerifySSA checks SSA-specific invariants after renaming: every use refers
// to a version that is defined, and each (sym, version) pair has exactly
// one definition point.
func VerifySSA(f *Func) error {
	type dv struct {
		sym *Sym
		ver int
	}
	defs := map[dv]int{}
	addDef := func(sym *Sym, ver int) {
		if ver > 0 {
			defs[dv{sym, ver}]++
		}
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			addDef(phi.Sym, phi.Ver)
		}
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *Assign:
				addDef(st.Dst.Sym, st.Dst.Ver)
				for _, c := range st.Chis {
					addDef(c.Sym, c.NewVer)
				}
			case *IStore:
				if st.VV != nil {
					addDef(st.VV.Sym, st.VV.Ver)
				}
				for _, c := range st.Chis {
					addDef(c.Sym, c.NewVer)
				}
			case *Call:
				if st.Dst != nil {
					addDef(st.Dst.Sym, st.Dst.Ver)
				}
				for _, c := range st.Chis {
					addDef(c.Sym, c.NewVer)
				}
			}
		}
	}
	for k, n := range defs {
		if n > 1 {
			return fmt.Errorf("%s: %s_%d defined %d times", f.Name, k.sym.Name, k.ver, n)
		}
	}
	return nil
}

// defPos locates an SSA definition: the block it lives in and its
// statement index (phi definitions sit before every statement, at -1).
type defPos struct {
	block *Block
	idx   int
}

// VerifyDefUse checks that every SSA use is dominated by its definition:
// version 0 is the implicit entry value, every other version must be
// defined at a program point that dominates the use (strictly precedes it
// inside a block; dominates the block otherwise, and dominates the
// predecessor for a phi argument). It reuses the function's dominator
// tree (BuildDomTree) and is only meaningful while the function is in SSA
// form.
func VerifyDefUse(f *Func) error {
	dt := BuildDomTree(f)
	type dv struct {
		sym *Sym
		ver int
	}
	defs := map[dv]defPos{}
	addDef := func(sym *Sym, ver int, b *Block, idx int) {
		if ver > 0 {
			defs[dv{sym, ver}] = defPos{b, idx}
		}
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			addDef(phi.Sym, phi.Ver, b, -1)
		}
		for i, s := range b.Stmts {
			switch st := s.(type) {
			case *Assign:
				addDef(st.Dst.Sym, st.Dst.Ver, b, i)
				for _, c := range st.Chis {
					addDef(c.Sym, c.NewVer, b, i)
				}
			case *IStore:
				if st.VV != nil {
					addDef(st.VV.Sym, st.VV.Ver, b, i)
				}
				for _, c := range st.Chis {
					addDef(c.Sym, c.NewVer, b, i)
				}
			case *Call:
				if st.Dst != nil {
					addDef(st.Dst.Sym, st.Dst.Ver, b, i)
				}
				for _, c := range st.Chis {
					addDef(c.Sym, c.NewVer, b, i)
				}
			}
		}
	}

	// checkUse verifies one use at (b, idx); idx len(b.Stmts) is the
	// terminator, and a phi argument is checked at the end of the
	// predecessor block.
	checkUse := func(sym *Sym, ver int, b *Block, idx int, what string) error {
		if ver <= 0 {
			return nil
		}
		d, ok := defs[dv{sym, ver}]
		if !ok {
			return fmt.Errorf("%s B%d: %s uses undefined %s_%d", f.Name, b.ID, what, sym.Name, ver)
		}
		if d.block == b {
			if d.idx >= idx {
				return fmt.Errorf("%s B%d: %s of %s_%d precedes its definition (stmt %d uses, stmt %d defines)",
					f.Name, b.ID, what, sym.Name, ver, idx, d.idx)
			}
			return nil
		}
		if !dt.Dominates(d.block, b) {
			return fmt.Errorf("%s B%d: %s of %s_%d not dominated by its definition in B%d",
				f.Name, b.ID, what, sym.Name, ver, d.block.ID)
		}
		return nil
	}
	useOp := func(op Operand, b *Block, idx int, what string) error {
		if r, ok := op.(*Ref); ok && r != nil {
			return checkUse(r.Sym, r.Ver, b, idx, what)
		}
		return nil
	}

	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for j, arg := range phi.Args {
				if arg == nil {
					return fmt.Errorf("%s B%d: phi for %s has nil argument %d", f.Name, b.ID, phi.Sym.Name, j)
				}
				pred := b.Preds[j]
				// the argument is consumed on the incoming edge: its
				// definition must dominate the end of the predecessor
				if err := checkUse(arg.Sym, arg.Ver, pred, len(pred.Stmts), "phi argument"); err != nil {
					return err
				}
			}
		}
		for i, s := range b.Stmts {
			for _, op := range Uses(s) {
				if err := useOp(op, b, i, "operand"); err != nil {
					return err
				}
			}
			switch st := s.(type) {
			case *Assign:
				for _, mu := range st.Mus {
					if err := checkUse(mu.Sym, mu.Ver, b, i, "mu"); err != nil {
						return err
					}
				}
				for _, c := range st.Chis {
					if err := checkUse(c.Sym, c.OldVer, b, i, "chi operand"); err != nil {
						return err
					}
				}
				if st.VV != nil {
					if err := checkUse(st.VV.Sym, st.VV.Ver, b, i, "virtual-variable use"); err != nil {
						return err
					}
				}
			case *IStore:
				for _, c := range st.Chis {
					if err := checkUse(c.Sym, c.OldVer, b, i, "chi operand"); err != nil {
						return err
					}
				}
				if st.VV != nil {
					if err := checkUse(st.VV.Sym, st.VVOld, b, i, "virtual-variable operand"); err != nil {
						return err
					}
				}
			case *Call:
				for _, mu := range st.Mus {
					if err := checkUse(mu.Sym, mu.Ver, b, i, "mu"); err != nil {
						return err
					}
				}
				for _, c := range st.Chis {
					if err := checkUse(c.Sym, c.OldVer, b, i, "chi operand"); err != nil {
						return err
					}
				}
			}
		}
		if b.Term.Cond != nil {
			if err := useOp(b.Term.Cond, b, len(b.Stmts), "branch condition"); err != nil {
				return err
			}
		}
		if b.Term.Val != nil {
			if err := useOp(b.Term.Val, b, len(b.Stmts), "return value"); err != nil {
				return err
			}
		}
	}
	return nil
}
