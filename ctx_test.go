package repro_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestEvaluateCtxCancelMidSweep is the PR's cancellation acceptance
// criterion: start a sensitivity-style sweep via EvaluateCtx, cancel
// mid-flight, and assert (under -race) that the call returns
// context.Canceled promptly and that goroutines drain back to the
// pre-sweep baseline — no leaked workers, no leaked singleflight
// waiters.
func TestEvaluateCtxCancelMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and sweeps a workload")
	}
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("workload equake not registered")
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// a wide grid so the sweep is still mid-flight when we cancel
	var cfgs []machine.Config
	for i := 0; i < 64; i++ {
		m := machine.Defaults()
		m.ALATSize = 4 + i
		cfgs = append(cfgs, m)
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.EvaluateCtx(ctx, w.RefArgs, cfgs, 4)
		done <- err
	}()
	// let the sweep get going, then pull the plug
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("EvaluateCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled EvaluateCtx did not return promptly")
	}

	// in-flight replays finish on their own and their goroutines exit;
	// poll until the count is back at (or below) the baseline
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// the compilation is still usable: a fresh context sweeps fine
	res, err := c.EvaluateCtx(context.Background(), w.RefArgs, cfgs[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] == nil || res[1] == nil {
		t.Fatalf("post-cancel sweep results: %+v", res)
	}
}

// TestCompileCtxCancelled proves CompileCtx checks its context at phase
// boundaries: an already-cancelled context fails fast without running
// the pipeline.
func TestCompileCtxCancelled(t *testing.T) {
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("workload equake not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	repro.ResetCaches()
	_, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CompileCtx with cancelled ctx = %v, want context.Canceled", err)
	}
	// and the cancellation did not poison the cache for the next caller
	c, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		t.Fatal(err)
	}
	if c.ProfileErr != nil {
		t.Fatalf("profile poisoned by cancelled compile: %v", c.ProfileErr)
	}
}

// TestCompileCtxDeadlineStopsTraining: the training interpreter polls
// the compile's context, so a non-terminating training run ends at the
// deadline instead of at the interpreter's step limit, and the profile
// cache does not keep the deadline error for the next caller.
func TestCompileCtxDeadlineStopsTraining(t *testing.T) {
	const src = `int main(){ while (1) {} }`
	compile := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecProfile})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("CompileCtx = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("CompileCtx returned %v after its 100ms deadline", d)
		}
	}
	repro.ResetCaches()
	compile()
	// a cached error would be returned without a second training run
	runs := repro.ProfilingRuns()
	compile()
	if got := repro.ProfilingRuns() - runs; got != 1 {
		t.Errorf("second compile ran %d training runs, want 1 (the deadline error was cached)", got)
	}
}

// TestReferenceRunsHonorDeadline: the reference interpreter and the
// reuse-limit simulation (inline and sharded) poll their context, so a
// non-terminating program ends at the deadline instead of at the
// interpreter's step limit.
func TestReferenceRunsHonorDeadline(t *testing.T) {
	const src = `int main(){ while (1) {} }`
	c, err := repro.CompileCtx(context.Background(), src, repro.Config{OptimizeOff: true})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(ctx context.Context) error{
		"RunReferenceCtx": func(ctx context.Context) error {
			_, err := c.RunReferenceCtx(ctx, nil)
			return err
		},
		"ReuseLimitWorkersCtx/1": func(ctx context.Context) error {
			_, err := repro.ReuseLimitWorkersCtx(ctx, src, nil, 1)
			return err
		},
		"ReuseLimitWorkersCtx/2": func(ctx context.Context) error {
			_, err := repro.ReuseLimitWorkersCtx(ctx, src, nil, 2)
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			if err := run(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s = %v, want context.DeadlineExceeded", name, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s returned %v after its 100ms deadline", name, d)
			}
		})
	}
}
