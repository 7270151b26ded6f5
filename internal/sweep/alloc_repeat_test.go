package sweep_test

import (
	goruntime "runtime"
	"testing"

	"jsweep/internal/nodespec"
	"jsweep/internal/raceflag"
	"jsweep/internal/sweep"
	"jsweep/internal/transport"
)

// TestSolveAllocationsRepeat: on a persistent 2×1 in-process session, what
// a whole solve allocates is a property of the program, not of when the
// garbage collector ran. Once warm (solves 3–8) every solve allocates the
// same count within ±2, and the last three each start right after two
// forced collections without that count moving.
//
// The test runs on one P. With several, the Go scheduler's own sudog
// cache adds a few allocations now and then: a goroutine that parks in a
// select on one P and wakes on another moves its sudogs between the per-P
// caches, an overflowing cache spills into a central list that every GC
// empties, and the emptied side allocates afresh. That count belongs to
// the Go runtime, not to this program, so it is kept out of the check.
func TestSolveAllocationsRepeat(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("eight full solves per mesh are too slow under -race")
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	for _, spec := range []nodespec.Spec{
		{Mesh: "kobayashi", N: 8, SnOrder: 4, Scatter: true, Procs: 2, Workers: 1, Tol: 1e-7},
		{Mesh: "ball", Cells: 1000, SnOrder: 4, Patch: 100, Procs: 2, Workers: 1, Tol: 1e-7},
	} {
		t.Run(spec.Mesh, func(t *testing.T) {
			prob, d, err := nodespec.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := nodespec.SolverOptions(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sweep.NewSolver(prob, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cfg := nodespec.IterConfig(spec)
			var counts [8]uint64
			var ms goruntime.MemStats
			for i := range counts {
				if i >= 5 {
					goruntime.GC()
					goruntime.GC()
				}
				goruntime.ReadMemStats(&ms)
				before := ms.Mallocs
				s.ResetSolve()
				if _, err := transport.SourceIterate(prob, s, cfg); err != nil {
					t.Fatal(err)
				}
				goruntime.ReadMemStats(&ms)
				counts[i] = ms.Mallocs - before
			}
			t.Logf("allocations per solve: %v", counts)
			ref := counts[2]
			for i, c := range counts[2:] {
				if c+2 < ref || c > ref+2 {
					t.Errorf("solve %d allocated %d, solve 3 allocated %d: warm solves must agree within ±2 (all: %v)", i+3, c, ref, counts)
				}
			}
		})
	}
}
