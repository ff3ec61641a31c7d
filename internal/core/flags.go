package core

import (
	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
)

// Mode selects how speculation flags are assigned to chi/mu operators.
type Mode int

const (
	// ModeNone disables data speculation: every chi and mu is flagged as
	// highly likely, so no update is ever speculatively ignored. This is
	// the paper's non-speculative baseline.
	ModeNone Mode = iota
	// ModeProfile assigns flags from alias-profile LOC sets (§3.2.1).
	ModeProfile
	// ModeHeuristic assigns flags by the three heuristic rules of §3.2.2:
	// stores' updates are speculatively ignorable except between
	// references with identical syntax trees, and call side effects are
	// always highly likely.
	ModeHeuristic
	// ModeCost assigns flags from counted alias profiles through an
	// expected-cost comparison: a chi/mu stays weak (speculation allowed)
	// iff the expected savings of the speculative schedule beat the
	// expected recovery cost, (1-p)·saved > threshold·p·recover, where
	// p = LOC count / site executions and both cycle terms come from the
	// machine latency model (Policy). ModeProfile is the p∈{0,1} special
	// case of this policy.
	ModeCost
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeProfile:
		return "profile"
	case ModeHeuristic:
		return "heuristic"
	case ModeCost:
		return "cost"
	}
	return "mode?"
}

// ProfileGuided reports whether the mode consults alias-profile LOC sets
// (ModeProfile's set semantics or ModeCost's counted semantics). The
// speculative use-def walk and the flag checker treat both identically:
// the per-symbol decision is already baked into the flags.
func (m Mode) ProfileGuided() bool { return m == ModeProfile || m == ModeCost }

// Policy is the expected-cost speculation policy of ModeCost. Speculating
// past a weak update trades a cheaper schedule on the no-alias path
// against a recovery reload on the alias path; the policy flags a chi/mu
// (blocking speculation) when the trade loses in expectation. The cycle
// terms come from the machine model (PolicyFor), not hand-tuned
// constants, and Threshold scales the recovery side: >1 is conservative
// (misspeculation priced above its latency, e.g. when recovery pollutes
// the cache), <1 aggressive.
type Policy struct {
	Threshold  float64
	SavedInt   float64
	SavedFP    float64
	RecoverInt float64
	RecoverFP  float64
}

// PolicyFor derives the policy's cost terms from a machine model.
// threshold <= 0 means the neutral default of 1 (cost-true comparison).
func PolicyFor(mc machine.Config, threshold float64) Policy {
	if threshold <= 0 {
		threshold = 1
	}
	return Policy{
		Threshold:  threshold,
		SavedInt:   float64(mc.SpecSavedCycles(false)),
		SavedFP:    float64(mc.SpecSavedCycles(true)),
		RecoverInt: float64(mc.SpecRecoveryCycles(false)),
		RecoverFP:  float64(mc.SpecRecoveryCycles(true)),
	}
}

// DefaultPolicy is the policy of the default machine model at the
// neutral threshold.
func DefaultPolicy() Policy { return PolicyFor(machine.Config{}, 0) }

// Speculate reports whether the policy allows speculating past an update
// whose alias probability is p: (1-p)·saved > Threshold·p·recover.
// A probability of 0 always speculates (when there is anything to save)
// and a probability of 1 never does, so ModeProfile's set semantics fall
// out as the degenerate case.
func (pol Policy) Speculate(p float64, fp bool) bool {
	saved, rec := pol.SavedInt, pol.RecoverInt
	if fp {
		saved, rec = pol.SavedFP, pol.RecoverFP
	}
	return (1-p)*saved > pol.Threshold*p*rec
}

// AliasProb converts a (LOC count, site executions) pair into p(alias).
// A zero total means the profile carries no execution counts (a
// version-1 profile): membership degrades to certainty, reproducing the
// set semantics such a profile was collected under. Call-site counts can
// exceed the call's execution count (one call may touch a LOC many
// times), so the ratio is clamped at 1.
func AliasProb(count, total uint64) float64 {
	if total == 0 {
		if count > 0 {
			return 1
		}
		return 0
	}
	if count >= total {
		return 1
	}
	return float64(count) / float64(total)
}

// FnOverride re-tiers one function: its chi/mu flags are assigned under
// its own mode and policy instead of the program-wide ones. This is the
// compile-side half of adaptive tiering — flag assignment is purely a
// per-symbol decision baked into the IR before the speculative use-def
// walk runs, and the walk's behavior depends only on those flags, so a
// per-function mode swap is sound without touching the global pipeline
// configuration.
type FnOverride struct {
	Mode   Mode
	Policy Policy
}

// AssignFlagsTiered walks every chi/mu list in the program and sets the
// Spec flags according to the mode. pol is the expected-cost policy,
// consulted only by ModeCost (DefaultPolicy is the default machine
// model's). For ModeProfile and ModeCost, prof supplies the LOC
// multisets collected by the alias-profiling interpreter run; profiled
// LOCs that the compile-time lists miss are added as flagged entries (the
// paper's "if any member of its profiled LOC set is not in its chi list,
// add the member using chi_s"). overrides re-tiers functions by name;
// functions absent from the map (or all of them, when it is nil) use
// the program-wide mode and policy.
func AssignFlagsTiered(prog *ir.Program, ar *alias.Result, prof *profile.Profile, mode Mode, pol Policy, overrides map[string]FnOverride) {
	for _, f := range prog.Funcs {
		fnMode, fnPol := mode, pol
		if ov, ok := overrides[f.Name]; ok {
			fnMode, fnPol = ov.Mode, ov.Policy
		}
		assignFlagsFunc(f, ar, prof, fnMode, fnPol)
	}
}

// assignFlagsFunc assigns every chi/mu flag of one function.
func assignFlagsFunc(f *ir.Func, ar *alias.Result, prof *profile.Profile, mode Mode, pol Policy) {
	for _, b := range f.Blocks {
		for _, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				if t.RK == ir.RHSLoad && t.Site != 0 {
					locs := LocsFor(prof, mode, t.Site, false)
					total := SiteTotalFor(prof, mode, t.Site)
					fp := t.LoadsFrom != nil && t.LoadsFrom.IsFloat()
					flagMus(f, t.Mus, locs, total, ar, mode, pol, fp)
					t.Mus = addMissingMus(f, t.Mus, locs, total, ar, mode, pol, fp)
				}
				// not an else: an indirect load whose destination is
				// itself a memory-resident scalar also performs a
				// direct store and carries store-side chis
				if t.Dst.Sym.InMemory() {
					// direct store's chi on the virtual variable: a
					// weak summary update under speculation, a hard
					// kill otherwise
					for _, chi := range t.Chis {
						chi.Spec = mode == ModeNone
					}
				}
			case *ir.IStore:
				if t.Site != 0 {
					locs := LocsFor(prof, mode, t.Site, true)
					total := SiteTotalFor(prof, mode, t.Site)
					fp := t.StoresTo != nil && t.StoresTo.IsFloat()
					flagChis(f, t.Chis, locs, total, ar, mode, pol, fp)
					t.Chis = addMissingChis(f, t.Chis, locs, total, ar, mode, pol, fp)
				}
			case *ir.Call:
				// heuristic rule 3: call side effects are always
				// highly likely (mu list remains unflagged)
				if mode.ProfileGuided() {
					// a nil profile (failed training run, or the
					// aggressive-promotion bound) means no call-site
					// LOC was ever observed: every side effect stays
					// a weak, speculatively ignorable update
					var mod, ref profile.LocSet
					var total uint64
					if prof != nil {
						mod, ref = prof.CallMod[t.Site], prof.CallRef[t.Site]
						total = SiteTotalFor(prof, mode, t.Site)
					}
					flagChis(f, t.Chis, mod, total, ar, mode, pol, false)
					t.Chis = addMissingChis(f, t.Chis, mod, total, ar, mode, pol, false)
					flagMus(f, t.Mus, ref, total, ar, mode, pol, false)
				} else {
					for _, chi := range t.Chis {
						chi.Spec = true
					}
					if mode == ModeNone {
						for _, mu := range t.Mus {
							mu.Spec = true
						}
					}
				}
			}
		}
	}
}

// LocsFor fetches the profiled LOC set AssignFlagsTiered consults for a
// reference site (nil when no profile applies). Exported for the
// speculation-soundness checker (internal/specheck), which re-derives the
// expected flag of every chi/mu and compares it against what the pipeline
// actually assigned.
func LocsFor(prof *profile.Profile, mode Mode, site int, isStore bool) profile.LocSet {
	if !mode.ProfileGuided() || prof == nil {
		return nil
	}
	if isStore {
		return prof.StoreLocs[site]
	}
	return prof.LoadLocs[site]
}

// SiteTotalFor fetches the dynamic execution count of a reference site
// that AssignFlagsTiered consults, or 0 when the mode does not use counts
// (or the profile predates them). Exported for internal/specheck (see
// LocsFor).
func SiteTotalFor(prof *profile.Profile, mode Mode, site int) uint64 {
	if mode != ModeCost || prof == nil {
		return 0
	}
	return prof.SiteTotal[site]
}

// flagChis sets the Spec flag of each chi: under ModeNone everything is
// flagged; under ModeProfile a chi is flagged iff its symbol's LOC was
// observed at this site (virtual variables stay weak — pairwise kill
// information lives on the member symbols); under ModeCost iff the
// expected-cost policy refuses to speculate at the symbol's observed
// alias probability; under ModeHeuristic store chis stay weak (the
// syntax-tree rule is applied during the walk).
func flagChis(f *ir.Func, chis []*ir.Chi, locs profile.LocSet, total uint64, ar *alias.Result, mode Mode, pol Policy, fp bool) {
	for _, chi := range chis {
		chi.Spec = SymFlag(f, chi.Sym, locs, total, ar, mode, pol, fp)
	}
}

func flagMus(f *ir.Func, mus []*ir.Mu, locs profile.LocSet, total uint64, ar *alias.Result, mode Mode, pol Policy, fp bool) {
	for _, mu := range mus {
		mu.Spec = SymFlag(f, mu.Sym, locs, total, ar, mode, pol, fp)
	}
}

// SymFlag reports the speculation flag AssignFlagsTiered gives one chi/mu
// symbol at a site with the given profiled LOC set, execution total and
// policy (the latter two consulted only by ModeCost; fp selects the
// floating-point cost terms). Exported for internal/specheck (see
// LocsFor).
func SymFlag(f *ir.Func, sym *ir.Sym, locs profile.LocSet, total uint64, ar *alias.Result, mode Mode, pol Policy, fp bool) bool {
	switch mode {
	case ModeNone:
		return true
	case ModeHeuristic:
		return false
	case ModeProfile:
		if sym.Kind == ir.SymVirtual {
			if key, ok := ar.HeapSiteOf[sym]; ok {
				return locs.Has(profile.HeapLoc(key.Site, key.Ctx))
			}
			return false // class virtual variable: always weak
		}
		return locs.Has(symLoc(f, sym))
	case ModeCost:
		var count uint64
		if sym.Kind == ir.SymVirtual {
			key, ok := ar.HeapSiteOf[sym]
			if !ok {
				return false // class virtual variable: always weak
			}
			count = locs.Count(profile.HeapLoc(key.Site, key.Ctx))
		} else {
			count = locs.Count(symLoc(f, sym))
		}
		return !pol.Speculate(AliasProb(count, total), fp)
	}
	return true
}

// symLoc builds the profile LOC naming a program variable in function f.
func symLoc(f *ir.Func, sym *ir.Sym) profile.Loc {
	if sym.Kind == ir.SymGlobal {
		return profile.GlobalLoc(sym)
	}
	return profile.LocalLoc(f, sym)
}

// addMissingChis appends chis for profiled LOCs absent from the
// compile-time list (conservative-analysis escape hatch from §3.2.1),
// flagged by the same per-symbol policy as the listed entries (under
// ModeProfile an observed LOC always flags, the historical behavior).
func addMissingChis(f *ir.Func, chis []*ir.Chi, locs profile.LocSet, total uint64, ar *alias.Result, mode Mode, pol Policy, fp bool) []*ir.Chi {
	if locs == nil {
		return chis
	}
	have := map[*ir.Sym]bool{}
	for _, chi := range chis {
		have[chi.Sym] = true
	}
	for loc, n := range locs {
		if n == 0 {
			continue // never observed: not a profiled LOC
		}
		sym := ar.LocToSym(f, loc)
		if sym != nil && !have[sym] {
			have[sym] = true
			chis = append(chis, &ir.Chi{Sym: sym, Spec: SymFlag(f, sym, locs, total, ar, mode, pol, fp)})
		}
	}
	return chis
}

func addMissingMus(f *ir.Func, mus []*ir.Mu, locs profile.LocSet, total uint64, ar *alias.Result, mode Mode, pol Policy, fp bool) []*ir.Mu {
	if locs == nil {
		return mus
	}
	have := map[*ir.Sym]bool{}
	for _, mu := range mus {
		have[mu.Sym] = true
	}
	for loc, n := range locs {
		if n == 0 {
			continue // never observed: not a profiled LOC
		}
		sym := ar.LocToSym(f, loc)
		if sym != nil && !have[sym] {
			have[sym] = true
			mus = append(mus, &ir.Mu{Sym: sym, Spec: SymFlag(f, sym, locs, total, ar, mode, pol, fp)})
		}
	}
	return mus
}
