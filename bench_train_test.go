package repro_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/alias"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/workloads"
)

// BenchmarkTrainingRun measures the profiling interpreter run a cold
// compile pays for: edge and alias collection over every workload at
// its training input, on the refined program CompileCtx profiles, with
// no cache in the way. One op is one training run of each workload. It
// writes BENCH_train.json; the committed file also carries the same
// benchmark's figures at the parent commit on the same host, added by
// hand when the file is re-recorded.
func BenchmarkTrainingRun(b *testing.B) {
	ws := workloads.All()
	progs := make([]*ir.Program, len(ws))
	for i, w := range ws {
		f, err := source.Parse(w.Src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := source.Lower(f)
		if err != nil {
			b.Fatal(err)
		}
		alias.RefineWorkers(prog, 1)
		progs[i] = prog
	}
	perWorkload := make([]time.Duration, len(ws))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range ws {
			start := time.Now()
			if _, err := interp.Run(progs[j], interp.Options{
				CollectEdges: true, CollectAlias: true, Profile: profile.New(), Args: w.ProfileArgs,
			}); err != nil {
				b.Fatal(err)
			}
			perWorkload[j] += time.Since(start)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	runNs := map[string]float64{}
	for j, w := range ws {
		runNs[w.Name] = float64(perWorkload[j].Nanoseconds()) / float64(b.N)
	}
	out := map[string]any{
		"benchmark":     "TrainingRun",
		"cores":         runtime.NumCPU(),
		"workloads":     len(ws),
		"ns_per_op":     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"bytes_per_op":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N),
		"ns_per_run":    runNs,
		"allocs_per_op": float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_train.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
