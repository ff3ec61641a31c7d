package repro_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files of the tests run from the current compiler")

const goldenPath = "testdata/golden/code_fingerprints.txt"

// goldenConfigs are the compile configurations the golden file pins:
// every speculation mode plus each optimizer ablation and the scheduler.
var goldenConfigs = []struct {
	name string
	cfg  repro.Config
}{
	{"SpecOff", repro.Config{Spec: repro.SpecOff}},
	{"SpecProfile", repro.Config{Spec: repro.SpecProfile}},
	{"SpecHeuristic", repro.Config{Spec: repro.SpecHeuristic}},
	{"SpecCost", repro.Config{Spec: repro.SpecCost}},
	{"AggressivePromotion", repro.Config{AggressivePromotion: true}},
	{"NoArith", repro.Config{Spec: repro.SpecProfile, NoArith: true}},
	{"NoStrength", repro.Config{Spec: repro.SpecProfile, NoStrength: true}},
	{"NoControlSpec", repro.Config{Spec: repro.SpecProfile, NoControlSpec: true}},
	{"Schedule", repro.Config{Spec: repro.SpecProfile, Schedule: true}},
}

// goldenProgram is one source the golden file pins, with its training input.
type goldenProgram struct {
	name  string
	src   string
	train []int64
}

// goldenPrograms lists every bundled kernel (published and hidden) and
// every file of the experiments corpus, in a fixed order.
func goldenPrograms(t *testing.T) []goldenProgram {
	var progs []goldenProgram
	for _, w := range append(workloads.All(), workloads.Hidden()...) {
		progs = append(progs, goldenProgram{"workload:" + w.Name, w.Src, w.ProfileArgs})
	}
	root := "internal/experiments/testdata/corpus"
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".c") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		progs = append(progs, goldenProgram{"corpus:" + filepath.ToSlash(rel), string(src), profileDirective(string(src))})
	}
	return progs
}

// profileDirective reads a corpus file's "// profile-args:" comment.
func profileDirective(src string) []int64 {
	for _, line := range strings.Split(src, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "// profile-args:")
		if !ok {
			continue
		}
		var args []int64
		for _, f := range strings.Fields(rest) {
			v, _ := strconv.ParseInt(f, 10, 64)
			args = append(args, v)
		}
		return args
	}
	return nil
}

// codeFingerprint compiles src under cfg and renders the generated code's
// fingerprint and the optimizer's summed statistics as one line field.
func codeFingerprint(src string, train []int64, cfg repro.Config, workers int) string {
	cfg.ProfileArgs = train
	cfg.Workers = workers
	c, err := repro.CompileCtx(context.Background(), src, cfg)
	if err != nil {
		return "error"
	}
	return fmt.Sprintf("%x %+v", c.Code.Fingerprint(), c.TotalStats())
}

// goldenLines renders the golden file's body at the given worker bound:
// one line per (program, config) pair, then one line per config hashing
// the generated programs of progGen seeds 1-200.
func goldenLines(t *testing.T, workers int) []string {
	var lines []string
	for _, p := range goldenPrograms(t) {
		for _, gc := range goldenConfigs {
			lines = append(lines, fmt.Sprintf("%s %s %s", p.name, gc.name, codeFingerprint(p.src, p.train, gc.cfg, workers)))
		}
	}
	srcs := make([]string, 200)
	for i := range srcs {
		srcs[i] = newProgGen(int64(i + 1)).generate()
	}
	for _, gc := range goldenConfigs {
		h := sha256.New()
		for i, src := range srcs {
			fmt.Fprintf(h, "%d %s\n", i+1, codeFingerprint(src, []int64{3}, gc.cfg, workers))
		}
		lines = append(lines, fmt.Sprintf("proggen:1-200 %s %x", gc.name, h.Sum(nil)))
	}
	return lines
}

// TestGoldenCodeFingerprints pins the generated code and optimizer
// statistics of every bundled program, the experiments corpus and 200
// generated programs under every speculation mode and ablation, serially
// and in parallel. Optimizer refactors that claim bit-identical output
// must leave this file untouched; regenerate it with -update only for a
// deliberate change in generated code.
func TestGoldenCodeFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every program under every config twice")
	}
	if *updateGolden {
		body := strings.Join(goldenLines(t, 1), "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, workers := range []int{1, 0} {
		got := goldenLines(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d lines, golden file has %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: line %d\n got: %s\nwant: %s", workers, i+1, got[i], want[i])
			}
		}
	}
}
