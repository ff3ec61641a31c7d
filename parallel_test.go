package repro_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The tests in this file pin the determinism contract of the parallel
// pipeline: Workers=1 runs the serial code paths bit-for-bit and is the
// oracle; any other worker count must produce identical optimizer stats,
// identical machine code, and identical VM counters.

func compileAt(t *testing.T, w workloads.Workload, cfg repro.Config, workers int) (*repro.Compilation, *machine.Result) {
	t.Helper()
	cfg.ProfileArgs = w.ProfileArgs
	cfg.Workers = workers
	c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatalf("compile %s workers=%d: %v", w.Name, workers, err)
	}
	res, err := c.RunCtx(context.Background(), w.RefArgs)
	if err != nil {
		t.Fatalf("run %s workers=%d: %v", w.Name, workers, err)
	}
	return c, res
}

// TestCompileParallelDeterminism compiles kernels serially and with 8
// workers and compares every observable artifact of the compilation.
func TestCompileParallelDeterminism(t *testing.T) {
	cfgs := map[string]repro.Config{
		"profile":   {Spec: repro.SpecProfile},
		"heuristic": {Spec: repro.SpecHeuristic},
		"scheduled": {Spec: repro.SpecProfile, Schedule: true},
	}
	for _, name := range []string{"equake", "mcf", "gzip"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		for cname, cfg := range cfgs {
			serial, serialRes := compileAt(t, w, cfg, 1)
			parallel, parallelRes := compileAt(t, w, cfg, 8)

			if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
				t.Errorf("%s/%s: optimizer stats differ between workers=1 and workers=8:\n%+v\nvs\n%+v",
					name, cname, serial.Stats, parallel.Stats)
			}
			if got, want := parallel.Prog.String(), serial.Prog.String(); got != want {
				t.Errorf("%s/%s: optimized IR differs between workers=1 and workers=8", name, cname)
			}
			if got, want := parallel.Code.String(), serial.Code.String(); got != want {
				t.Errorf("%s/%s: machine code differs between workers=1 and workers=8", name, cname)
			}
			if serialRes.Counters != parallelRes.Counters {
				t.Errorf("%s/%s: VM counters differ:\n%+v\nvs\n%+v",
					name, cname, serialRes.Counters, parallelRes.Counters)
			}
			if serialRes.Output != parallelRes.Output {
				t.Errorf("%s/%s: program output differs", name, cname)
			}
		}
	}
}

// TestRunAllParallelDeterminism runs the full experiment sweep serially
// and with 8 workers; every measured row must be identical.
func TestRunAllParallelDeterminism(t *testing.T) {
	serial, err := experiments.RunAllCtx(context.Background(), 1)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := experiments.RunAllCtx(context.Background(), 8)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("experiment rows differ between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// TestAuxExperimentsParallelDeterminism pins the Workers contract for
// the studies outside RunAllCtx: the smvp case study and the sensitivity
// table must be identical at Workers=1 (the serial oracle) and
// Workers=8.
func TestAuxExperimentsParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	s1, err := experiments.RunSmvpCtx(ctx, 1)
	if err != nil {
		t.Fatalf("serial smvp: %v", err)
	}
	s8, err := experiments.RunSmvpCtx(ctx, 8)
	if err != nil {
		t.Fatalf("parallel smvp: %v", err)
	}
	if s1 != s8 {
		t.Errorf("smvp differs between workers=1 and workers=8:\n%+v\nvs\n%+v", s1, s8)
	}
	r1, err := experiments.RunSensitivityCtx(ctx, 1)
	if err != nil {
		t.Fatalf("serial sensitivity: %v", err)
	}
	r8, err := experiments.RunSensitivityCtx(ctx, 8)
	if err != nil {
		t.Fatalf("parallel sensitivity: %v", err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("sensitivity rows differ between workers=1 and workers=8:\n%+v\nvs\n%+v", r1, r8)
	}
}

// TestFrontendCacheDetached pins the cache soundness property: a
// compilation must never observe mutations made to another compilation's
// optimized IR, even though both started from one cached parse. The
// reference IR is the other half of the contract: it is the shared,
// read-only cache master, so every compilation of a source sees the same
// *ir.Program there.
func TestFrontendCacheDetached(t *testing.T) {
	ctx := context.Background()
	w, _ := workloads.ByName("equake")
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	c1, err := repro.CompileCtx(ctx, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refText := c1.Ref.String()
	progText := c1.Prog.String()

	// vandalize the first compilation's optimized program, then compile
	// the same source again — the new compile starts from the same cache
	// master and must be untouched
	for _, f := range c1.Prog.Funcs {
		for _, s := range f.Syms {
			s.Name = "junk_" + s.Name
		}
	}
	c2, err := repro.CompileCtx(ctx, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ref != c1.Ref {
		t.Fatal("two compilations of one source got different reference programs; want the shared cache master")
	}
	if c2.Ref.String() != refText {
		t.Fatal("mutating one compilation's optimized IR leaked into the cache master")
	}
	if c2.Prog.String() != progText {
		t.Fatal("mutating one compilation's IR leaked into a later compile of the same source")
	}
	res1, err := c1.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Output != res2.Output || res1.Counters != res2.Counters {
		t.Fatal("cached compile produced different code than the original")
	}

	// a cold compile (cache dropped) must also agree
	repro.ResetCaches()
	c3, err := repro.CompileCtx(ctx, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Ref.String() != refText || c3.Prog.String() != progText {
		t.Fatal("cold compile differs from cached compile")
	}
}
