package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected cut points are those of Python's
	// statistics.quantiles(xs, n=4), the pipeline's method.
	for _, c := range []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7},
		{"two", []float64{2, 1}, 0.75, 1.5, 2.25},
		{"five unsorted", []float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("%s: quartiles = %v %v %v, want %v %v %v", c.name, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("%s: median = %v, want %v", c.name, m, c.q2)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1 ((8.25-2.75)/5.5)", s)
	}
	if s := spread([]float64{0, 0, 0}); s != 0 {
		t.Errorf("spread of zeros = %v, want 0", s)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one value = %v, want 0", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {90, 46}, {25, 20}, {99.9, 49.96}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100.2, 99.8, 100}
	shifted := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          float64
		want           verdict
	}{
		{"same", steady, steady, false, 0.10, within},
		{"5% slower, bound 10%", steady, shifted(1.05), false, 0.10, within},
		{"15% slower, bound 10%", steady, shifted(1.15), false, 0.10, worse},
		{"15% faster is never worse", steady, shifted(0.85), false, 0.10, within},
		{"higher is better: 15% lower", steady, shifted(0.85), true, 0.10, worse},
		{"higher is better: 15% higher", steady, shifted(1.15), true, 0.10, within},
		{"noisy parent", noisy, steady, false, 0.10, unresolved},
		{"noisy change", steady, noisy, false, 0.10, unresolved},
		{"count bound 2%: 3% more", steady, shifted(1.03), false, 0.02, worse},
		{"single runs", []float64{100}, []float64{109}, false, 0.10, within},
		{"single runs, worse", []float64{100}, []float64{111}, false, 0.10, worse},
	} {
		if got := compare(c.parent, c.change, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: compare = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "solve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "iteration", Start: 0, End: 60},
		{ID: 3, Parent: 2, Name: "iter.sweep", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "iter.residual", Start: 40, End: 60}, // overlaps the sweep by 10
		{ID: 5, Parent: 1, Name: "iteration", Start: 60, End: 100},
	}
	rows, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]layerRow{
		"solve":         {name: "solve", count: 1, total: 100, self: 0},
		"iteration":     {name: "iteration", count: 2, total: 100, self: 50}, // 60-50 covered + 40
		"iter.sweep":    {name: "iter.sweep", count: 1, total: 40, self: 40},
		"iter.residual": {name: "iter.residual", count: 1, total: 20, self: 20},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if r != want[r.name] {
			t.Errorf("row %+v, want %+v", r, want[r.name])
		}
	}
	spans[2].End = 61 // the sweep now outlives its iteration
	if _, err := selfTimes(spans); err == nil {
		t.Error("selfTimes accepted a child span that exceeds its parent")
	}
}
