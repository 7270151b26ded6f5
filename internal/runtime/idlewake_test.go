package runtime_test

import (
	"context"
	"testing"
	"time"

	"jsweep/internal/graph"
	"jsweep/internal/priority"
	"jsweep/internal/registry"
	"jsweep/internal/runtime"
	"jsweep/internal/sweep"
)

// TestIdleProcessWakesMaster: a worker whose cycle leaves its process with
// no active program and no busy worker wakes the master, even when the
// cycle produced no output, so termination is checked at once rather than
// at the master's next tick. With the tick pushed out to an hour, a 2×1
// Kobayashi-8 round with aggregation off must still terminate, under both
// termination detectors.
func TestIdleProcessWakesMaster(t *testing.T) {
	prob, d, err := registry.Build("kobayashi", registry.Params{N: 8, SnOrder: 4})
	if err != nil {
		t.Fatal(err)
	}
	d.Place(2)
	q := prob.NewFlux()
	for g := range q {
		for c := range q[g] {
			q[g][c] = 1
		}
	}
	for _, term := range []runtime.TerminationMode{runtime.Workload, runtime.Safra} {
		t.Run(term.String(), func(t *testing.T) {
			rt, err := runtime.New(runtime.Config{Procs: 2, Workers: 1, Termination: term})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			runtime.SetMasterTick(rt, time.Hour)
			for a, dir := range prob.Quad.Directions {
				for p, g := range graph.BuildAllPatchGraphs(d, dir.Omega, int32(a)) {
					prog := sweep.NewProgram(sweep.ProgramConfig{
						Prob: prob, Graph: g, Dir: dir, Q: q, Grain: 8,
						VertexPrio: priority.VertexPriorities(priority.SLBD, g),
					})
					if err := rt.Register(prog.Key, prog, priority.AnglePriority(int32(a)), d.Owner[p]); err != nil {
						t.Fatal(err)
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			if _, err := rt.RunRoundCtx(ctx); err != nil {
				t.Fatalf("round without the master's tick: %v after %v", err, time.Since(start))
			}
		})
	}
}
