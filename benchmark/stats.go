package main

// The statistics every report and every before/after comparison of this
// benchmark uses. Later issues that claim or protect a number compare two
// sets of runs with compare and nothing else.

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method, which is
// what the pipeline's own spread check uses). One value is its own
// quartiles; an empty set gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise measure the bounds are held
// against. 0 when the median is 0.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quiet is the estimator of the gated wall times: given the median time of
// each unit of work in a run (a solve, a block of jobs), the first decile
// over the units — the time the program takes in the run's least disturbed
// units. On a shared host interference only ever adds time, and it comes
// in bursts of seconds: measured over 8 runs in a noisy phase, the overall
// median's run-to-run spread was 0.26 and 0.12 on two workloads where this
// estimator's was 0.09 and 0.07 (README.md, "Bounds"). A change in the
// program moves every quantile alike.
func quiet(unitMedians []float64) float64 { return percentile(unitMedians, 10) }

// tailPercentiles are the candidates for tailPercentile, highest first,
// each with the share of samples beyond it written as one in N.
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// tailPercentile returns the highest percentile of an n-sample set that
// still has at least ten samples beyond it, or 0 when even the 75th has
// fewer (n < 40): a tail read from fewer samples is one slow sample, not
// a percentile.
func tailPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n >= 10*c.oneIn {
			return c.p
		}
	}
	return 0
}

// verdict is the outcome of comparing a change's runs with its parent's.
type verdict string

const (
	// within: the change's median is no worse than the parent's by more
	// than the bound.
	within verdict = "within bound"
	// worse: the change's median is worse by more than the bound.
	worse verdict = "worse by more than bound"
	// unresolved: one side's own run-to-run spread exceeds the bound, so
	// the two medians cannot be told apart at this run length.
	unresolved verdict = "unresolved"
)

// compare applies the benchmark's regression rule to one metric on one
// workload: parent and change each hold one value per run.
func compare(parent, change []float64, higherBetter bool, bound float64) verdict {
	if spread(parent) > bound || spread(change) > bound {
		return unresolved
	}
	p, c := median(parent), median(change)
	loss := c - p
	if higherBetter {
		loss = p - c
	}
	if loss > bound*math.Abs(p) {
		return worse
	}
	return within
}
