package main

import (
	"fmt"
	"reflect"
	"testing"
)

func TestSequenceIsSeeded(t *testing.T) {
	for _, w := range []string{serveWarm, serveCold, sweep} {
		a, b, c := mustGenerate(t, w, 7, 200), mustGenerate(t, w, 7, 200), mustGenerate(t, w, 8, 200)
		if !reflect.DeepEqual(bodies(a), bodies(b)) {
			t.Errorf("%s: the same seed gave different sequences", w)
		}
		if reflect.DeepEqual(bodies(a), bodies(c)) {
			t.Errorf("%s: different seeds gave the same sequence", w)
		}
	}
}

func TestWarmMix(t *testing.T) {
	seq := mustGenerate(t, serveWarm, 3, 320)
	evals, policies := 0, []string{}
	for _, r := range seq {
		switch {
		case r.eval != nil:
			evals++
			if r.eval.Config != nil || r.eval.Args != nil {
				t.Fatal("warm evaluations must be config-less")
			}
		case r.compile != nil:
			if !r.compile.Verify || r.compile.Config.ProfileArgs == nil {
				t.Fatal("warm compiles must verify and train on the kernel's training input")
			}
			policies = append(policies, r.compile.Harden)
		}
	}
	if evals != 240 || len(policies) != 80 {
		t.Fatalf("%d evaluations and %d compiles in 320 requests, want 240 and 80", evals, len(policies))
	}
	for i, p := range policies {
		if want := []string{"fence", "hoist"}[i%2]; p != want {
			t.Fatalf("compile %d hardens with %s, want %s", i, p, want)
		}
	}
}

// TestColdKeysAreFresh checks that every cold request trains and runs
// on inputs no earlier request or set-up used, within the kernel's
// training-to-reference box.
func TestColdKeysAreFresh(t *testing.T) {
	seq := mustGenerate(t, serveCold, 5, 1500)
	seen := map[string]bool{}
	for _, r := range seq {
		k := r.kernel
		pa, args := r.eval.Config.ProfileArgs, r.eval.Args
		for _, v := range []struct {
			kind string
			vec  []int64
		}{{"profile", pa}, {"args", args}} {
			key := fmt.Sprint(k.Name, v.kind, v.vec)
			if seen[key] || reflect.DeepEqual(v.vec, k.ProfileArgs) || reflect.DeepEqual(v.vec, k.RefArgs) {
				t.Fatalf("%s %s %v is not fresh", k.Name, v.kind, v.vec)
			}
			seen[key] = true
			for i, x := range v.vec {
				lo, hi := min(k.ProfileArgs[i], k.RefArgs[i]), max(k.ProfileArgs[i], k.RefArgs[i])
				if x < lo || x > hi {
					t.Fatalf("%s %s %v leaves the [%d, %d] range at %d", k.Name, v.kind, v.vec, lo, hi, i)
				}
			}
		}
	}
}

func mustGenerate(t *testing.T, workload string, seed uint64, n int) []*request {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.generate(n)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func bodies(seq []*request) []string {
	out := make([]string, len(seq))
	for i, r := range seq {
		out[i] = string(r.body)
	}
	return out
}
