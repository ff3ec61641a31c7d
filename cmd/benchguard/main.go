// Command benchguard is the CI perf gate. It compares freshly generated
// benchmark artifacts against their committed baselines and exits
// non-zero on a regression beyond the allowed fraction.
//
// One rule table names every guarded key, whatever the file:
//
//   - "speedup" inside every top-level object, higher is better: a fresh
//     value below baseline·(1−margin) fails, and so does an object the
//     fresh file lost. This covers BENCH_machine.json's per-grid
//     replay-sweep speedups, BENCH_fleet.json's cold and warm 1-vs-2
//     worker sweep speedups, BENCH_adaptive.json's speedups over the
//     two fixed policies, and BENCH_harden.json's per-(workload, policy)
//     leaky-over-hardened cycle ratios;
//   - top-level "allocs_per_compile" and "ns_per_compile"
//     (BENCH_compile.json), lower is better: a fresh value above
//     baseline·(1+margin) fails.
//
// Fleet speedups are core-count-bound (the file records "cores"), so
// that gate only compares runs against a baseline generated on the same
// CI runner class. The adaptive and harden ratios are deterministic
// simulated cycles, so any drift at all is a behaviour change worth
// looking at.
//
// Single-pass CI benchmark numbers are noisy, so the margin is
// deliberately wide (25%); the guarded quantities sit far inside it on
// any runner, and only a real algorithmic regression (e.g. the batched
// replay walk falling back to per-config replays, or a per-site
// allocation sneaking into the flag-assignment loop) moves them that
// much.
//
// Usage:
//
//	benchguard BASELINE FRESH [BASELINE FRESH ...]
//
// It exits 0 when every guarded key holds, 1 on a regression, and 2
// when a file is unreadable, is not JSON, or carries no guarded key.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// maxRegress is the allowed fractional regression (0.25 = 25%).
const maxRegress = 0.25

// rule is one guarded key of the table.
type rule struct {
	// key names the guarded number: a top-level field, or, when nested,
	// the field inside every top-level object.
	key    string
	nested bool
	// higherBetter picks the direction: a drop below baseline·(1−margin)
	// fails when set, a rise above baseline·(1+margin) otherwise.
	higherBetter bool
}

var rules = []rule{
	{key: "speedup", nested: true, higherBetter: true},
	{key: "allocs_per_compile"},
	{key: "ns_per_compile"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run gates each (baseline, fresh) pair in order and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || len(args)%2 != 0 {
		fmt.Fprintln(stderr, "usage: benchguard BASELINE FRESH [BASELINE FRESH ...]")
		return 2
	}
	failed := false
	for i := 0; i < len(args); i += 2 {
		ok, err := guard(stdout, args[i], args[i+1])
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 2
		}
		failed = failed || !ok
	}
	if failed {
		fmt.Fprintln(stdout, "benchguard: benchmark regressed beyond the allowed margin")
		return 1
	}
	return 0
}

// guard compares every guarded value of the baseline file against the
// fresh file and prints one line per value.
func guard(w io.Writer, baselinePath, freshPath string) (bool, error) {
	base, err := load(baselinePath)
	if err != nil {
		return false, err
	}
	fresh, err := load(freshPath)
	if err != nil {
		return false, err
	}
	ok := true
	for i, r := range rules {
		names := make([]string, 0, len(base[i]))
		for name := range base[i] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			baseV := base[i][name]
			freshV, found := fresh[i][name]
			switch {
			case !found && r.higherBetter:
				fmt.Fprintf(w, "FAIL %-8s baseline %.3fx but grid missing from fresh results\n", name, baseV)
				ok = false
			case !found:
				fmt.Fprintf(w, "FAIL %-18s baseline %.1f but value missing from fresh results\n", name, baseV)
				ok = false
			case r.higherBetter:
				floor := baseV * (1 - maxRegress)
				status := "ok"
				if freshV < floor {
					status = "FAIL"
					ok = false
				}
				fmt.Fprintf(w, "%-4s %-8s baseline %.3fx  fresh %.3fx  floor %.3fx\n",
					status, name, baseV, freshV, floor)
			default:
				ceiling := baseV * (1 + maxRegress)
				status := "ok"
				if freshV > ceiling {
					status = "FAIL"
					ok = false
				}
				fmt.Fprintf(w, "%-4s %-18s baseline %12.1f  fresh %12.1f  ceiling %12.1f\n",
					status, name, baseV, freshV, ceiling)
			}
		}
	}
	return ok, nil
}

// load reads the guarded values of one benchmark file, one map per rule
// (keyed by the top-level object name for nested rules, by the key
// itself otherwise). Only positive numbers count.
func load(path string) ([]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]map[string]float64, len(rules))
	n := 0
	for i, r := range rules {
		out[i] = map[string]float64{}
		if !r.nested {
			if v, ok := raw[r.key].(float64); ok && v > 0 {
				out[i][r.key] = v
			}
		} else {
			for name, v := range raw {
				if obj, ok := v.(map[string]any); ok {
					if s, ok := obj[r.key].(float64); ok && s > 0 {
						out[i][name] = s
					}
				}
			}
		}
		n += len(out[i])
	}
	if n == 0 {
		return nil, fmt.Errorf("%s: no guarded key found", path)
	}
	return out, nil
}
