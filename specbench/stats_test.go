package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, beyond, ok := percentile(xs, 0.99, 10)
	if v != 990 || beyond != 10 || !ok {
		t.Fatalf("p99 of 1..1000 = %v (%d beyond, ok=%v), want 990 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(xs[:999], 0.99, 10); ok || beyond != 9 {
		t.Fatalf("p99 of 999 samples: %d beyond, ok=%v; want 9 beyond, not ok", beyond, ok)
	}
	if v, _, _ := percentile(xs, 0.5, 10); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
}

func TestPercentileTiesAreNotBeyond(t *testing.T) {
	xs := []float64{1, 2, 2, 2, 3}
	v, beyond, _ := percentile(xs, 0.5, 0)
	if v != 2 || beyond != 1 {
		t.Fatalf("median of %v = %v with %d beyond, want 2 with 1", xs, v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestGeomean(t *testing.T) {
	g, ok := geomean([]float64{1, 4, 16})
	if !ok || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(1,4,16) = %v ok=%v, want 4", g, ok)
	}
	if _, ok := geomean([]float64{2, 0}); ok {
		t.Fatal("geomean with a zero must fail")
	}
	if _, ok := geomean(nil); ok {
		t.Fatal("geomean of nothing must fail")
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 80}}, 60},
		{"overlapping counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested inside another child", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted", []interval{{50, 80}, {10, 20}}, 60},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside parent", []interval{{100, 120}}, 100},
		{"full cover", []interval{{0, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
