package sweep_test

import (
	"math"
	"testing"

	"jsweep/internal/priority"
	"jsweep/internal/runtime"
	"jsweep/internal/sweep"
	"jsweep/internal/transport"
)

// Golden regression tests: the JSweep solver's converged scalar flux must
// match the serial reference executor on the same problem — bit-for-bit
// on structured Kobayashi (identical cell visit order per angle within a
// patch), and to tight tolerance on the unstructured ball. Both with and
// without message aggregation: batching reorders delivery, never values.

// goldenTol is the relative tolerance for the unstructured comparison,
// where patch-boundary accumulation order may differ from the serial
// reference's global order.
const goldenTol = 1e-12

func referenceFlux(t *testing.T, prob *transport.Problem) [][]float64 {
	t.Helper()
	ref, err := sweep.NewReference(prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transport.SourceIterate(prob, ref, transport.IterConfig{Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("reference did not converge")
	}
	return res.Phi
}

func compareFlux(t *testing.T, name string, got, want [][]float64, bitwise bool) {
	t.Helper()
	mismatches := 0
	for g := range want {
		for c := range want[g] {
			w, h := want[g][c], got[g][c]
			if bitwise {
				if w != h {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("%s: group %d cell %d: got %v, want %v (bitwise)", name, g, c, h, w)
					}
				}
				continue
			}
			denom := math.Abs(w)
			if denom < 1 {
				denom = 1
			}
			if math.Abs(h-w)/denom > goldenTol {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("%s: group %d cell %d: got %v, want %v (rel err %.2e)",
						name, g, c, h, w, math.Abs(h-w)/denom)
				}
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("%s: %d total mismatches", name, mismatches)
	}
}

func aggVariants() map[string]runtime.AggregationConfig {
	return map[string]runtime.AggregationConfig{
		"agg-off":     {},
		"agg-on":      {Enabled: true},
		"agg-sharded": {Enabled: true, Shards: 3, MaxBatchStreams: 8},
	}
}

func TestGoldenKobayashiMatchesReference(t *testing.T) {
	prob, d := kobaSmall(t, true)
	want := referenceFlux(t, prob)
	for name, agg := range aggVariants() {
		s, err := sweep.NewSolver(prob, d, sweep.Options{
			Procs: 3, Workers: 2, Grain: 32,
			Pair:        priority.Pair{Patch: priority.SLBD, Vertex: priority.SLBD},
			Aggregation: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := transport.SourceIterate(prob, s, transport.IterConfig{Tolerance: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: solver did not converge", name)
		}
		compareFlux(t, "kobayashi/"+name, res.Phi, want, true)
	}
}

func TestGoldenBallMatchesReference(t *testing.T) {
	prob, d := ballSmall(t)
	want := referenceFlux(t, prob)
	for name, agg := range aggVariants() {
		s, err := sweep.NewSolver(prob, d, sweep.Options{
			Procs: 2, Workers: 2, Grain: 16,
			Pair:        priority.Pair{Patch: priority.SLBD, Vertex: priority.SLBD},
			Aggregation: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := transport.SourceIterate(prob, s, transport.IterConfig{Tolerance: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: solver did not converge", name)
		}
		compareFlux(t, "ball/"+name, res.Phi, want, false)
	}
}

// Aggregation must leave the routed stream count invariant while cutting
// transport messages — checked on a real solve, not a synthetic grid.
//
// The two runs are scheduled separately, and a patch-program that computes
// on partial input emits its boundary flux in more, smaller streams, so
// the count is comparable only on a pinned schedule. Grain 64 is one whole
// 4³ patch per Compute: every S2 direction has three non-zero components,
// so all cells of a block depend on its upwind corner cell, which needs a
// face from every upstream patch — each patch-angle therefore solves in
// exactly one Compute and routes exactly one stream per downstream patch.
func TestGoldenAggregationMessageInvariants(t *testing.T) {
	prob, d := kobaSmall(t, false)
	run := func(agg runtime.AggregationConfig) runtime.Stats {
		s, err := sweep.NewSolver(prob, d, sweep.Options{
			Procs: 3, Workers: 2, Grain: 64,
			Pair:        priority.Pair{Patch: priority.SLBD, Vertex: priority.SLBD},
			Aggregation: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sweep(prob.NewFlux()); err != nil {
			t.Fatal(err)
		}
		return s.LastStats().Runtime
	}
	off := run(runtime.AggregationConfig{})
	on := run(runtime.AggregationConfig{Enabled: true})
	if on.RemoteStreams != off.RemoteStreams {
		t.Errorf("RemoteStreams changed: on=%d off=%d", on.RemoteStreams, off.RemoteStreams)
	}
	if on.StreamsBatched != on.RemoteStreams {
		t.Errorf("StreamsBatched=%d, want every remote stream (%d) in a batch", on.StreamsBatched, on.RemoteStreams)
	}
	if on.BatchesSent == 0 || on.BatchesSent >= on.RemoteStreams {
		t.Errorf("BatchesSent=%d, want in (0, %d)", on.BatchesSent, on.RemoteStreams)
	}
	if on.Messages >= off.Messages {
		t.Errorf("aggregation did not reduce messages: on=%d off=%d", on.Messages, off.Messages)
	}
}
