package machine_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestReplayBatchDistinctMissStreams runs the lane walk where ALAT
// capacities really disagree: equake's checks miss differently at 2, 4
// and 8 entries (and at 2 the misses reach the pipelined clock), and
// twolf's four standard sizes give three distinct miss streams. Lanes
// must follow their own stream, so per config Replay, ReplayBatch and
// direct Run agree exactly.
func TestReplayBatchDistinctMissStreams(t *testing.T) {
	lats := []struct{ intLd, fpLd int }{{2, 9}, {8, 24}}
	for _, tc := range []struct {
		workload string
		sizes    []int
		streams  int
	}{
		{"equake", []int{2, 4, 8}, 3},
		{"twolf", []int{4, 8, 32, 128}, 3},
	} {
		w, ok := workloads.ByName(tc.workload)
		if !ok {
			t.Fatalf("%s not registered", tc.workload)
		}
		c, err := repro.Compile(w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		tr, err := machine.Record(c.Code, w.RefArgs, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", tc.workload, err)
		}
		var cfgs []machine.Config
		for _, size := range tc.sizes {
			for _, lat := range lats {
				cfgs = append(cfgs, machine.Config{ALATSize: size, IntLoadLat: lat.intLd, FPLoadLat: lat.fpLd, Pipelined: true})
			}
			cfgs = append(cfgs, machine.Config{ALATSize: size})
		}
		if got, want := machine.LaneCount(tr, cfgs), tc.streams*len(lats); got != want {
			t.Fatalf("%s: %d lanes, want %d (%d miss streams x %d latency points)",
				tc.workload, got, want, tc.streams, len(lats))
		}
		batch, err := machine.ReplayBatch(c.Code, tr, cfgs)
		if err != nil {
			t.Fatalf("%s: batch: %v", tc.workload, err)
		}
		for i, cfg := range cfgs {
			direct, err := machine.Run(c.Code, w.RefArgs, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: run: %v", tc.workload, cfg, err)
			}
			single, err := machine.Replay(c.Code, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: replay: %v", tc.workload, cfg, err)
			}
			if !reflect.DeepEqual(direct, single) || !reflect.DeepEqual(direct, batch[i]) {
				t.Errorf("%s %+v:\ndirect %+v\nreplay %+v\nbatch  %+v", tc.workload, cfg, direct, single, batch[i])
			}
		}
	}
}
