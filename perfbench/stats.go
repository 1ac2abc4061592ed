package main

import (
	"fmt"
	"math"
	"sort"
)

// dist summarizes one timing sample set: its median and its tail. The
// tail is the 99th percentile when at least ten samples lie beyond it,
// and otherwise the highest percentile that still has ten beyond it.
type dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailPc float64 `json:"tail_pct"` // the percentile Tail reports
}

// summarize returns the distribution of xs; xs is left untouched. It
// fails when fewer than eleven samples leave no percentile with ten
// beyond it.
func summarize(xs []float64) (dist, error) {
	n := len(xs)
	if n < 11 {
		return dist{}, fmt.Errorf("%d samples: need at least 11 for a tail", n)
	}
	all := sorted(xs)
	d := dist{N: n, P50: median(all)}
	d.Tail, d.TailPc = tail(all)
	return d, nil
}

// tail returns the 99th percentile of sorted xs, or the highest
// percentile with ten samples beyond it, and the percentile used.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx > n-11 {
		idx = n - 11
	}
	return xs[idx], 100 * float64(idx+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of sorted xs (0 for an empty slice).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// medianOf is median over an unsorted slice; xs is left untouched.
func medianOf(xs []float64) float64 { return median(sorted(xs)) }
