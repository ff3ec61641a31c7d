package core

import "repro/internal/ir"

// WalkContext carries per-occurrence context for the speculative use-def
// walk: which weak updates may be skipped for the expression occurrence
// under consideration.
type WalkContext struct {
	Mode Mode

	// MuSpec holds the symbols carrying a mu_s flag at the load
	// occurrence (ModeProfile): an intervening statement that flags (or
	// strongly defines) any of these symbols is a real kill and blocks
	// the skip — this is the paper's Example 1 reasoning, where mu_s(b)
	// at the load pairs with chi_s(b) at a store.
	// The set is a handful of symbols at most, so it is a slice.
	MuSpec []*ir.Sym

	// SynKey is the syntax-tree key of the occurrence and Keys the
	// per-function key table (ModeHeuristic): an intervening store with
	// an identical syntax tree is a real kill (heuristic rules 1/2).
	SynKey string
	Keys   map[ir.Stmt]string
}

// AddMuSpec adds sym to MuSpec.
func (c *WalkContext) AddMuSpec(sym *ir.Sym) {
	if !c.muSpec(sym) {
		c.MuSpec = append(c.MuSpec, sym)
	}
}

func (c *WalkContext) muSpec(sym *ir.Sym) bool {
	for _, s := range c.MuSpec {
		if s == sym {
			return true
		}
	}
	return false
}

// BlocksSkip reports whether the context forbids speculatively ignoring
// the weak update performed by stmt.
func (c *WalkContext) BlocksSkip(stmt ir.Stmt) bool {
	if c == nil {
		return false
	}
	switch c.Mode {
	case ModeNone:
		return true
	case ModeProfile, ModeCost:
		// ModeCost shares the profile walk: the per-symbol cost decision
		// is already baked into the chi/mu flags, and MuSpec pairs the
		// load's flagged mus with flagged chis exactly as in ModeProfile
		if len(c.MuSpec) == 0 {
			return false
		}
		switch t := stmt.(type) {
		case *ir.Assign:
			if t.Dst.Sym.InMemory() && c.muSpec(t.Dst.Sym) {
				return true
			}
			for _, chi := range t.Chis {
				if chi.Spec && c.muSpec(chi.Sym) {
					return true
				}
			}
		case *ir.IStore:
			for _, chi := range t.Chis {
				if chi.Spec && c.muSpec(chi.Sym) {
					return true
				}
			}
		case *ir.Call:
			for _, chi := range t.Chis {
				if chi.Spec && c.muSpec(chi.Sym) {
					return true
				}
			}
		}
		return false
	case ModeHeuristic:
		if c.Keys == nil || c.SynKey == "" {
			return false
		}
		switch t := stmt.(type) {
		case *ir.IStore:
			return c.Keys[stmt] == c.SynKey
		case *ir.Assign:
			// a direct store to the variable this occurrence names
			if t.Dst.Sym.InMemory() && c.Keys[stmt] == c.SynKey {
				return true
			}
		}
		return false
	}
	return false
}

// SpecHome walks up the use-def chain of (sym, ver), skipping speculative
// weak updates (unflagged chis the context allows ignoring). It returns
// the version whose definition is a real kill — a strong def, a phi, a
// flagged chi, a context-blocked chi, or entry — and whether any weak
// update was skipped (in which case using the earlier value requires a
// run-time check).
func (s *SSA) SpecHome(sym *ir.Sym, ver int, ctx *WalkContext) (home int, skipped bool) {
	home = ver
	for {
		d, ok := s.Def[SymVer{sym, home}]
		if !ok || d.Kind != DefChi {
			return home, skipped
		}
		if d.Chi.Spec {
			return home, skipped
		}
		if ctx.BlocksSkip(d.Stmt) {
			return home, skipped
		}
		home = d.Chi.OldVer
		skipped = true
	}
}

// SpecReaches reports whether, starting from version `from` of sym and
// skipping allowed weak updates, the walk reaches exactly version `to`.
// The boolean spec reports whether reaching it required skipping (so a
// check instruction is needed).
func (s *SSA) SpecReaches(sym *ir.Sym, from, to int, ctx *WalkContext) (reaches, spec bool) {
	cur := from
	skipped := false
	for {
		if cur == to {
			return true, skipped
		}
		d, ok := s.Def[SymVer{sym, cur}]
		if !ok || d.Kind != DefChi {
			return false, false
		}
		if d.Chi.Spec || ctx.BlocksSkip(d.Stmt) {
			return false, false
		}
		cur = d.Chi.OldVer
		skipped = true
	}
}
