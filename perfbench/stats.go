package main

import (
	"math"
	"sort"
)

// measure is one reported figure: a distribution's median with its
// quartiles and sample count, or a single value (n = 1).
type measure struct {
	value, q1, q3 float64
	n             int
	// tail is the highest percentile with at least ten samples beyond
	// it, when n allows one (tailPct); tailPct is 0 otherwise.
	tail, tailPct float64
}

// one is a single-valued measure.
func one(v float64) measure { return measure{value: v, q1: v, q3: v, n: 1} }

// fromSamples summarises xs by median, quartiles and tail percentile.
func fromSamples(xs []float64) measure {
	if len(xs) == 0 {
		return measure{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := measure{value: percentile(s, 50), q1: percentile(s, 25), q3: percentile(s, 75), n: len(s)}
	if p, ok := tailPercentile(len(s)); ok {
		m.tailPct, m.tail = p, percentile(s, p)
	}
	return m
}

// tailPercentile returns the highest of the percentiles 99.9, 99, 90, 75
// and 50 that has at least ten of n samples beyond it, and false when even
// the median has fewer. Per-mille integers keep the count exact.
func tailPercentile(n int) (float64, bool) {
	for _, pm := range []int{999, 990, 900, 750, 500} {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// percentile interpolates the p-th percentile of sorted xs linearly
// between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// pctOf is the p-th percentile of unsorted xs.
func pctOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gmean is the geometric mean of positive xs, or 0 for none.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
