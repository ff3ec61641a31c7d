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

// The end-to-end differential obligation of the record-and-replay
// split: for every workload and every Config in the sensitivity sweep
// grid, the replayed result — cycle counts, every Counters field, and
// program output — is byte-identical to direct machine execution, at
// one worker and at eight. EvaluateCtx now re-times each trace group
// through machine.ReplayBatch, so the EvaluateCtx legs below exercise the
// batched engine end-to-end; the explicit ReplayBatch-vs-Replay leg
// pins the machine-level contract per workload over the full grid.

func TestReplayEquivalentToDirectOnAllWorkloads(t *testing.T) {
	ctx := context.Background()
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	cfgs := experiments.MachineSweepConfigs()
	for _, w := range workloads.All() {
		c, err := repro.CompileCtx(ctx, w.Src, repro.Config{
			Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if c.ProfileErr != nil {
			t.Fatalf("%s: %v", w.Name, c.ProfileErr)
		}

		repro.SetTraceEnabled(false)
		direct, err := c.EvaluateCtx(ctx, w.RefArgs, cfgs, 1)
		repro.SetTraceEnabled(true)
		if err != nil {
			t.Fatalf("%s: direct evaluate: %v", w.Name, err)
		}

		serial, err := c.EvaluateCtx(ctx, w.RefArgs, cfgs, 1)
		if err != nil {
			t.Fatalf("%s: replay evaluate (1 worker): %v", w.Name, err)
		}
		parallel, err := c.EvaluateCtx(ctx, w.RefArgs, cfgs, 8)
		if err != nil {
			t.Fatalf("%s: replay evaluate (8 workers): %v", w.Name, err)
		}

		for i, cfg := range cfgs {
			if !reflect.DeepEqual(direct[i], serial[i]) {
				t.Errorf("%s %+v: replay != direct\ndirect %+v\nreplay %+v",
					w.Name, cfg, direct[i], serial[i])
			}
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("%s %+v: 8-worker replay != 1-worker replay", w.Name, cfg)
			}
		}

		// machine-level leg: one ReplayBatch over the whole grid against
		// per-config Replay on the same trace
		tr, err := machine.Record(c.Code, w.RefArgs, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", w.Name, err)
		}
		batch, err := machine.ReplayBatch(c.Code, tr, cfgs)
		if err != nil {
			t.Fatalf("%s: batch: %v", w.Name, err)
		}
		for i, cfg := range cfgs {
			single, err := machine.Replay(c.Code, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: replay: %v", w.Name, cfg, err)
			}
			if !reflect.DeepEqual(single, batch[i]) {
				t.Errorf("%s %+v: batch != per-config replay\nreplay %+v\nbatch  %+v",
					w.Name, cfg, single, batch[i])
			}
			if !reflect.DeepEqual(direct[i], batch[i]) {
				t.Errorf("%s %+v: batch != direct\ndirect %+v\nbatch  %+v",
					w.Name, cfg, direct[i], batch[i])
			}
		}
	}
}

// TestRunUsesTracePathTransparently pins that the default Compilation.Run
// (trace-backed) matches direct execution exactly, including for the
// pipelined model of PipelinedMachine.
func TestRunUsesTracePathTransparently(t *testing.T) {
	ctx := context.Background()
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("equake not registered")
	}
	for _, mcfg := range []machine.Config{{}, repro.PipelinedMachine(), {ALATSize: 4}} {
		cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Machine: mcfg}
		c, err := repro.CompileCtx(ctx, w.Src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := c.RunCtx(ctx, w.RefArgs)
		if err != nil {
			t.Fatal(err)
		}
		repro.SetTraceEnabled(false)
		direct, derr := c.RunCtx(ctx, w.RefArgs)
		repro.SetTraceEnabled(true)
		if derr != nil {
			t.Fatal(derr)
		}
		if !reflect.DeepEqual(traced, direct) {
			t.Errorf("%+v: traced Run != direct Run\ntraced %+v\ndirect %+v", mcfg, traced, direct)
		}
	}
}

// TestShardedReuseLimitMatchesSerial asserts the ROADMAP-item contract:
// the sharded Fig. 12 reuse-limit simulation produces totals (and so
// PotentialReduction) identical to the serial walk, for every workload.
func TestShardedReuseLimitMatchesSerial(t *testing.T) {
	for _, w := range workloads.All() {
		serial, err := repro.ReuseLimitWorkersCtx(context.Background(), w.Src, w.RefArgs, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sharded, err := repro.ReuseLimitWorkersCtx(context.Background(), w.Src, w.RefArgs, 8)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if serial.Loads != sharded.Loads || serial.Reused != sharded.Reused {
			t.Errorf("%s: sharded totals diverge: serial %d/%d, sharded %d/%d",
				w.Name, serial.Reused, serial.Loads, sharded.Reused, sharded.Loads)
		}
		if serial.PotentialReduction() != sharded.PotentialReduction() {
			t.Errorf("%s: PotentialReduction diverges: %v vs %v",
				w.Name, serial.PotentialReduction(), sharded.PotentialReduction())
		}
	}
}
