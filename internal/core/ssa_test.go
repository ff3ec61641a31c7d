package core

import (
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
)

// build compiles src, runs alias analysis + annotation, optionally
// profiles with args, assigns flags for mode, and builds SSA for main.
func build(t *testing.T, src string, mode Mode, args []int64) (*ir.Program, *alias.Result, *SSA) {
	t.Helper()
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	var prof *profile.Profile
	if mode == ModeProfile {
		prof = profile.New()
		if _, err := interp.Run(prog, interp.Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: args}); err != nil {
			t.Fatalf("profiling run: %v", err)
		}
	}
	AssignFlagsTiered(prog, ar, prof, mode, DefaultPolicy(), nil)
	main := prog.FuncMap["main"]
	ssa := BuildSSA(main, ar.FuncVirtuals[main])
	if err := ir.VerifySSA(main); err != nil {
		t.Fatalf("SSA verification: %v\n%s", err, main)
	}
	return prog, ar, ssa
}

const twoPtrSrc = `
int a = 0;
int b = 0;
int main() {
	int n = arg(0);
	int *p = &a;
	int *q = &b;
	if (n > 100) { q = p; }
	int x = a;
	*q = 5;
	int y = a;
	print(x + y);
	return 0;
}`

func TestSSAVersionsAndPhis(t *testing.T) {
	_, _, ssa := build(t, `
int main() {
	int x = 1;
	if (arg(0)) x = 2;
	print(x);
	return 0;
}`, ModeNone, nil)
	// x must have a phi at the join
	found := false
	for _, b := range ssa.Fn.Blocks {
		for _, phi := range b.Phis {
			if phi.Sym.Name == "x" {
				found = true
				if len(phi.Args) != len(b.Preds) {
					t.Errorf("phi arity %d != preds %d", len(phi.Args), len(b.Preds))
				}
				for _, a := range phi.Args {
					if a.Ver == 0 {
						t.Errorf("phi argument of x left unrenamed")
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no phi inserted for x at the join point")
	}
}

func TestChiVersioning(t *testing.T) {
	prog, _, _ := build(t, twoPtrSrc, ModeNone, nil)
	main := prog.FuncMap["main"]
	// the indirect store must have chis on a, b, vv with fresh versions
	for _, b := range main.Blocks {
		for _, st := range b.Stmts {
			if is, ok := st.(*ir.IStore); ok {
				if len(is.Chis) < 3 {
					t.Fatalf("store has %d chis, want >= 3", len(is.Chis))
				}
				for _, chi := range is.Chis {
					if chi.NewVer == 0 {
						t.Errorf("chi on %s not versioned", chi.Sym.Name)
					}
					if chi.NewVer == chi.OldVer {
						t.Errorf("chi on %s has NewVer == OldVer", chi.Sym.Name)
					}
					if !chi.Spec {
						t.Errorf("ModeNone must flag every chi; %s is weak", chi.Sym.Name)
					}
				}
			}
		}
	}
}

func TestProfileFlagsWeakAndStrong(t *testing.T) {
	// with arg(0)=0 the store *q writes b only: chi on b flagged, chi on
	// a weak.
	prog, _, _ := build(t, twoPtrSrc, ModeProfile, []int64{0})
	main := prog.FuncMap["main"]
	var sawStore bool
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if is, ok := st.(*ir.IStore); ok {
				sawStore = true
				for _, chi := range is.Chis {
					switch chi.Sym.Name {
					case "a":
						if chi.Spec {
							t.Error("chi(a) flagged although profile never saw *q write a")
						}
					case "b":
						if !chi.Spec {
							t.Error("chi(b) not flagged although profile saw *q write b")
						}
					}
				}
			}
		}
	}
	if !sawStore {
		t.Fatal("no indirect store found")
	}
}

func TestSpecHomeSkipsWeakUpdates(t *testing.T) {
	prog, _, ssa := build(t, twoPtrSrc, ModeProfile, []int64{0})
	main := prog.FuncMap["main"]
	// find the two direct loads of a: x = a and y = a
	var loads []*ir.Assign
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if as, ok := st.(*ir.Assign); ok && as.RK == ir.RHSCopy {
				if r, ok := as.A.(*ir.Ref); ok && r.Sym.Name == "a" {
					loads = append(loads, as)
				}
			}
		}
	}
	if len(loads) != 2 {
		t.Fatalf("found %d direct loads of a, want 2\n%s", len(loads), main)
	}
	v1 := loads[0].A.(*ir.Ref).Ver
	v2 := loads[1].A.(*ir.Ref).Ver
	if v1 == v2 {
		t.Fatalf("the store must give a a new chi version (v1=%d v2=%d)", v1, v2)
	}
	aSym := loads[0].A.(*ir.Ref).Sym
	reaches, spec := ssa.SpecReaches(aSym, v2, v1, &WalkContext{Mode: ModeProfile})
	if !reaches {
		t.Fatal("second load of a should speculatively reach the first (weak chi skip)")
	}
	if !spec {
		t.Fatal("reaching across the store must be marked speculative")
	}
}

func TestSpecHomeBlockedByFlaggedChi(t *testing.T) {
	// with arg(0)=101, q aliases p = &a, so the profile flags chi(a):
	// the second load must NOT speculatively reach the first.
	prog, _, ssa := build(t, twoPtrSrc, ModeProfile, []int64{101})
	main := prog.FuncMap["main"]
	var loads []*ir.Assign
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if as, ok := st.(*ir.Assign); ok && as.RK == ir.RHSCopy {
				if r, ok := as.A.(*ir.Ref); ok && r.Sym.Name == "a" {
					loads = append(loads, as)
				}
			}
		}
	}
	if len(loads) != 2 {
		t.Fatalf("found %d direct loads of a, want 2", len(loads))
	}
	aSym := loads[0].A.(*ir.Ref).Sym
	v1 := loads[0].A.(*ir.Ref).Ver
	v2 := loads[1].A.(*ir.Ref).Ver
	if reaches, _ := ssa.SpecReaches(aSym, v2, v1, &WalkContext{Mode: ModeProfile}); reaches {
		t.Fatal("flagged chi(a) must block the speculative walk")
	}
}

func TestHeuristicModeSkipsDifferentSyntax(t *testing.T) {
	prog, _, ssa := build(t, twoPtrSrc, ModeHeuristic, nil)
	main := prog.FuncMap["main"]
	keys := ir.SyntaxKeys(main)
	var loads []*ir.Assign
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if as, ok := st.(*ir.Assign); ok && as.RK == ir.RHSCopy {
				if r, ok := as.A.(*ir.Ref); ok && r.Sym.Name == "a" {
					loads = append(loads, as)
				}
			}
		}
	}
	if len(loads) != 2 {
		t.Fatalf("found %d direct loads of a, want 2", len(loads))
	}
	aSym := loads[0].A.(*ir.Ref).Sym
	ctx := &WalkContext{Mode: ModeHeuristic, SynKey: keys[ir.Stmt(loads[1])], Keys: keys}
	reaches, spec := ssa.SpecReaches(aSym, loads[1].A.(*ir.Ref).Ver, loads[0].A.(*ir.Ref).Ver, ctx)
	if !reaches || !spec {
		t.Fatalf("heuristic mode should speculatively skip *q (different syntax tree): reaches=%v spec=%v", reaches, spec)
	}
}

func TestHeuristicModeBlockedBySameSyntax(t *testing.T) {
	// load *p, store *p, load *p: the store has the same syntax tree, so
	// heuristic rule 1 treats it as a real kill.
	src := `
int a = 0;
int main() {
	int *p = &a;
	int x = *p;
	*p = 9;
	int y = *p;
	print(x + y);
	return 0;
}`
	prog, ar, _ := buildRaw(t, src, ModeHeuristic, nil)
	main := prog.FuncMap["main"]
	ssa := BuildSSA(main, ar.FuncVirtuals[main])
	keys := ir.SyntaxKeys(main)
	var loads []*ir.Assign
	var vv *ir.Sym
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			if as, ok := st.(*ir.Assign); ok && as.RK == ir.RHSLoad {
				loads = append(loads, as)
				for _, mu := range as.Mus {
					if strings.HasPrefix(mu.Sym.Name, "v$") {
						vv = mu.Sym
					}
				}
			}
		}
	}
	if len(loads) != 2 || vv == nil {
		t.Fatalf("want 2 indirect loads with a vv mu, got %d (vv=%v)", len(loads), vv)
	}
	muVer := func(a *ir.Assign) int {
		for _, mu := range a.Mus {
			if mu.Sym == vv {
				return mu.Ver
			}
		}
		return -1
	}
	ctx := &WalkContext{Mode: ModeHeuristic, SynKey: keys[ir.Stmt(loads[1])], Keys: keys}
	if reaches, _ := ssa.SpecReaches(vv, muVer(loads[1]), muVer(loads[0]), ctx); reaches {
		t.Fatal("same-syntax store must block the heuristic skip")
	}
}

// buildRaw is build without the SSA construction (for tests that build it
// themselves).
func buildRaw(t *testing.T, src string, mode Mode, args []int64) (*ir.Program, *alias.Result, *profile.Profile) {
	t.Helper()
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	ar := alias.Analyze(prog, alias.Options{TypeBased: true})
	ar.AnnotateWorkers(prog, 0)
	var prof *profile.Profile
	if mode == ModeProfile {
		prof = profile.New()
		if _, err := interp.Run(prog, interp.Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: args}); err != nil {
			t.Fatalf("profiling run: %v", err)
		}
	}
	AssignFlagsTiered(prog, ar, prof, mode, DefaultPolicy(), nil)
	return prog, ar, prof
}

// TestAddMissingProfiledLocs: §3.2.1's escape hatch — a profiled LOC that
// the compile-time chi/mu list misses is added as a flagged entry.
func TestAddMissingProfiledLocs(t *testing.T) {
	src := `
int a = 0;
int b = 0;
int main() {
	int *p = &a;
	*p = 1;
	int x = *p;
	print(x);
	return 0;
}`
	prog, ar, _ := buildRaw(t, src, ModeNone, nil)
	main := prog.FuncMap["main"]
	// find b (not in p's alias class: p only ever points to a)
	var bSym *ir.Sym
	for _, g := range prog.Globals {
		if g.Name == "b" {
			bSym = g
		}
	}
	// forge a profile claiming the store also wrote b
	prof := profile.New()
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			switch s := st.(type) {
			case *ir.IStore:
				prof.StoreSet(s.Site).Add(profile.GlobalLoc(bSym))
				prof.StoreSet(s.Site).Add(profile.GlobalLoc(prog.Globals[0]))
			case *ir.Assign:
				if s.RK == ir.RHSLoad {
					prof.LoadSet(s.Site).Add(profile.GlobalLoc(bSym))
				}
			}
		}
	}
	AssignFlagsTiered(prog, ar, prof, ModeProfile, DefaultPolicy(), nil)
	foundChi, foundMu := false, false
	for _, blk := range main.Blocks {
		for _, st := range blk.Stmts {
			switch s := st.(type) {
			case *ir.IStore:
				for _, chi := range s.Chis {
					if chi.Sym == bSym && chi.Spec {
						foundChi = true
					}
				}
			case *ir.Assign:
				for _, mu := range s.Mus {
					if mu.Sym == bSym && mu.Spec {
						foundMu = true
					}
				}
			}
		}
	}
	if !foundChi {
		t.Error("profiled-but-unanalyzed store LOC was not added as chi_s")
	}
	if !foundMu {
		t.Error("profiled-but-unanalyzed load LOC was not added as mu_s")
	}
}

// TestFlagModesExhaustive: every chi is flagged under ModeNone; none of
// the store chis are flagged under ModeHeuristic; call chis are always
// flagged except under a matching profile.
func TestFlagModesExhaustive(t *testing.T) {
	src := `
int g = 0;
void w() { g = 1; }
int main() {
	int *p = &g;
	*p = 2;
	w();
	int x = *p;
	print(x);
	return 0;
}`
	for _, mode := range []Mode{ModeNone, ModeHeuristic} {
		prog, _, _ := buildRaw(t, src, mode, nil)
		for _, blk := range prog.FuncMap["main"].Blocks {
			for _, st := range blk.Stmts {
				switch s := st.(type) {
				case *ir.IStore:
					for _, chi := range s.Chis {
						if mode == ModeNone && !chi.Spec {
							t.Errorf("ModeNone: weak chi on %s", chi.Sym.Name)
						}
						if mode == ModeHeuristic && chi.Spec {
							t.Errorf("ModeHeuristic: flagged store chi on %s", chi.Sym.Name)
						}
					}
				case *ir.Call:
					for _, chi := range s.Chis {
						if !chi.Spec {
							t.Errorf("mode %v: call chi on %s must be flagged", mode, chi.Sym.Name)
						}
					}
				}
			}
		}
	}
}
