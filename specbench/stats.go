package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method, and the number of samples strictly above it. It reports
// ok=false when fewer than minBeyond samples lie beyond the quantile:
// a p99 needs at least 1000 samples to have ten beyond it.
func percentile(xs []float64, q float64, minBeyond int) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	v = s[rank-1]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values; a non-positive
// value has no logarithm, so it yields ok=false.
func geomean(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, false
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), true
}

// interval is a half-open [start, end) time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by any child interval.
// Children are clipped to the parent and their union is subtracted, so
// overlapping or out-of-order children are each counted once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
