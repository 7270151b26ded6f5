// The sim backend: a job spec replayed on the discrete-event cluster
// simulator (DESIGN.md substitution #2) instead of being solved. The
// same spec value that drives a real inproc or TCP solve here yields
// the simulated makespan and cost breakdown of one sweep of that
// problem, under the same decomposition, placement, priorities and
// aggregation policy.
package nodespec

import (
	"jsweep/internal/graph"
	"jsweep/internal/priority"
	"jsweep/internal/registry"
	"jsweep/internal/simcluster"
)

// SimRun holds a spec's fully assembled simulation inputs.
type SimRun struct {
	Workload *simcluster.Workload
	Config   simcluster.Config
	Cost     simcluster.CostModel
}

// BuildSim assembles the simulated task system of a spec from the very
// problem the real backends solve: the registry builds the actual mesh
// and decomposition, patches are placed exactly as the real solver
// places them, and one patch DAG per quadrature direction is projected
// from the real cell dependencies (patch-level cycles of cyclic meshes
// are acyclified — the simulator's stand-in for partial computation).
// The spec's workers, grain, priority pair and aggregation knobs carry
// over into the simulated runtime shape.
func BuildSim(s Spec) (*SimRun, error) {
	s = s.withDefaults()
	pair, err := ParsePair(s.Prio)
	if err != nil {
		return nil, err
	}
	prob, d, err := registry.Build(s.Mesh, MeshParams(s))
	if err != nil {
		return nil, err
	}
	groups := prob.Groups
	angles := prob.Quad.NumAngles()
	d.Place(s.Procs)

	np := d.NumPatches()
	w := &simcluster.Workload{
		PatchCells:  make([]int64, np),
		Owner:       append([]int(nil), d.Owner...),
		Octants:     make([]*graph.PatchDAG, angles),
		AngleOctant: make([]int, angles),
		// DAGs are projected from cell granularity on the real mesh, so
		// an edge weight already counts crossing faces.
		FacesPerEdgeScale: 1,
		Groups:            groups,
		Procs:             s.Procs,
	}
	for p := 0; p < np; p++ {
		w.PatchCells[p] = int64(len(d.Cells[p]))
	}
	conn := graph.NewConnectivity(d.Mesh)
	for a := 0; a < angles; a++ {
		dag := conn.PatchDAG(d, conn.Signature(prob.Quad.Directions[a].Omega))
		simcluster.AcyclifyDAG(dag)
		w.Octants[a] = dag
		w.AngleOctant[a] = a
	}

	cfg := simcluster.Config{
		Workers:   s.Workers,
		Grain:     int64(s.Grain),
		PatchPrio: simPatchPrio(w, pair.Patch),
		EmitDelay: simEmitDelay(pair.Vertex),
	}
	if s.Agg {
		cfg.Aggregation = simcluster.Aggregation{
			Enabled:         true,
			MaxBatchStreams: s.AggStreams,
			MaxBatchBytes:   float64(s.AggBytes),
		}
	}
	return &SimRun{
		Workload: w,
		Config:   cfg,
		Cost:     simcluster.DefaultCostModel(groups),
	}, nil
}

// simPatchPrio evaluates the patch strategy on every octant DAG and
// expands it to per-angle priorities.
func simPatchPrio(w *simcluster.Workload, s priority.Strategy) [][]int64 {
	perOctant := make([][]int64, len(w.Octants))
	for o, dag := range w.Octants {
		perOctant[o] = priority.PatchPriorities(s, dag)
	}
	out := make([][]int64, len(w.AngleOctant))
	for a, o := range w.AngleOctant {
		out[a] = perOctant[o]
	}
	return out
}

// simEmitDelay maps a vertex strategy onto the simulator's emission
// delay (see DESIGN.md "Priority → emission-delay mapping").
func simEmitDelay(s priority.Strategy) float64 {
	switch s {
	case priority.SLBD:
		return 0.0
	case priority.LDCP:
		return 0.25
	default: // BFS
		return 0.5
	}
}
