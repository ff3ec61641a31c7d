package repro_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// The tests in this file pin the profile-once contract of the
// compilation cache: a cold sweep runs the profiling interpreter exactly
// once per (source, training-args) pair, a warm-started run with a
// persistent cache dir runs it zero times, and the rendered experiment
// report is byte-identical with the cache disabled, cold, warm,
// persistent, and at any worker count.

// TestSweepProfilesOncePerPair asserts via the cache counters that a
// cold RunAllCtx performs one profiling interpreter run per workload (all
// four config variants of a workload share one run), and that repeating
// the sweep performs none.
func TestSweepProfilesOncePerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	// pin the profiling-cache contract in isolation: the machine-trace
	// path adds its own (legitimate) cache computes, which would make the
	// exact compute-count assertion below meaningless
	repro.SetTraceEnabled(false)
	defer repro.SetTraceEnabled(true)
	repro.ResetCaches()
	runs0 := repro.ProfilingRuns()
	stats0 := repro.CacheStats()
	if _, err := experiments.RunAllCtx(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(workloads.All()))
	if got := repro.ProfilingRuns() - runs0; got != n {
		t.Errorf("cold sweep ran the profiling interpreter %d times, want exactly %d (one per workload)", got, n)
	}
	// one frontend parse, one profiling run and one profile decode per
	// workload
	if got := repro.CacheStats().Computes - stats0.Computes; got != 3*n {
		t.Errorf("cold sweep computed %d cache entries, want %d", got, 3*n)
	}
	// a second sweep in the same process is fully memoized
	runs1 := repro.ProfilingRuns()
	if _, err := experiments.RunAllCtx(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	if got := repro.ProfilingRuns() - runs1; got != 0 {
		t.Errorf("warm in-memory sweep ran the profiling interpreter %d times, want 0", got)
	}
}

// TestWarmStartSkipsProfiling models the cross-process warm start: with
// a persistent cache dir, dropping the in-memory tier (a new process)
// and re-running a workload performs zero profiling interpreter runs and
// produces identical measurements.
func TestWarmStartSkipsProfiling(t *testing.T) {
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("equake not registered")
	}
	if err := repro.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := repro.SetCacheDir(""); err != nil {
			t.Fatal(err)
		}
	}()
	repro.ResetCaches()
	cold, err := experiments.RunOneCtx(context.Background(), w, 2)
	if err != nil {
		t.Fatal(err)
	}

	runs0 := repro.ProfilingRuns()
	stats0 := repro.CacheStats()
	repro.ResetCaches() // "new process": memory tier gone, disk tier stays
	warm, err := experiments.RunOneCtx(context.Background(), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := repro.ProfilingRuns() - runs0; got != 0 {
		t.Errorf("warm start ran the profiling interpreter %d times, want 0", got)
	}
	if got := repro.CacheStats().DiskHits - stats0.DiskHits; got == 0 {
		t.Error("warm start should have hit the persistent tier")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-start measurements differ from cold:\n%+v\nvs\n%+v", cold, warm)
	}
}

// TestReportByteIdenticalAcrossCacheModes renders the full experiment
// report with memoization disabled (the oracle), cold, warm, against a
// persistent dir, warm-started from that dir, and with 8 workers — all
// six byte strings must be identical.
func TestReportByteIdenticalAcrossCacheModes(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full report repeatedly")
	}
	render := func(name string, workers int) string {
		t.Helper()
		var b strings.Builder
		if err := experiments.ReportCtx(context.Background(), &b, workers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return b.String()
	}

	repro.SetCacheEnabled(false)
	oracle := render("disabled", 1)
	repro.SetCacheEnabled(true)

	repro.ResetCaches()
	variants := map[string]string{
		"cold":        render("cold", 1),
		"warm-memory": render("warm-memory", 1),
	}
	if err := repro.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	repro.ResetCaches()
	variants["persistent"] = render("persistent", 1)
	repro.ResetCaches()
	variants["warm-disk"] = render("warm-disk", 1)
	if err := repro.SetCacheDir(""); err != nil {
		t.Fatal(err)
	}
	variants["workers-8"] = render("workers-8", 8)

	if len(oracle) == 0 {
		t.Fatal("empty report")
	}
	for name, got := range variants {
		if got != oracle {
			t.Errorf("%s report differs from the cache-disabled oracle", name)
		}
	}
}
