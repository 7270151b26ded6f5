package sweep

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"jsweep/internal/graph"
	"jsweep/internal/mesh"
	"jsweep/internal/priority"
	"jsweep/internal/quadrature"
)

// sweepPlan is what a solver derives from its mesh, decomposition and
// quadrature before it can sweep: per angle the patch graphs G_{p,a}, the
// lagged feedback edges, the patch DAG and both priority levels derived
// from it, plus the cycle structure summed over angles.
//
// All of it depends on a direction only through its face-sign Signature
// (the class of Ω·n on every face), and the directions of a quadrature
// share few signatures — on a structured mesh one per octant, 8 for any
// level-symmetric set (the grouping Adams et al. exploit, arXiv:1906.02950).
// buildPlan therefore builds each signature group once, the groups
// concurrently, and gives every other angle of a group shallow copies of
// the group's graphs that differ only in Angle. Angles of one group share
// every slice of those graphs and their priority arrays, which is safe
// because nothing changes a built plan (see graph.PatchGraph).
type sweepPlan struct {
	graphs     [][]*graph.PatchGraph
	dags       []*graph.PatchDAG
	patchPrio  [][]int64
	vertexPrio [][][]int32
	lagged     [][]graph.CellEdge
	// groups counts the distinct signatures among the angles.
	groups                           int
	laggedEdges, cellSCCs, patchSCCs int
}

// groupPlan is the part of a plan one signature group shares.
type groupPlan struct {
	graphs              []*graph.PatchGraph
	dag                 *graph.PatchDAG
	patchPrio           []int64
	vertexPrio          [][]int32
	lagged              []graph.CellEdge
	cellSCCs, patchSCCs int
}

// buildPlan builds the plan of every direction of dirs on decomposition d,
// with the priority strategies of pair. The result does not depend on the
// number of goroutines or their schedule: every build writes only its own
// slot and reads only the shared, immutable connectivity table.
func buildPlan(d *mesh.Decomposition, dirs []quadrature.Direction, pair priority.Pair) *sweepPlan {
	conn := graph.NewConnectivity(d.Mesh)
	na := len(dirs)
	sigs := make([]graph.Signature, na)
	parallelFor(na, func(a int) { sigs[a] = conn.Signature(dirs[a].Omega) })
	// Group in angle order: a group's first angle is its representative.
	groupOf := make([]int, na)
	var reps []int
	seen := make(map[graph.Signature]int)
	for a, sig := range sigs {
		g, ok := seen[sig]
		if !ok {
			g = len(reps)
			seen[sig] = g
			reps = append(reps, a)
		}
		groupOf[a] = g
	}
	groups := make([]groupPlan, len(reps))
	parallelFor(len(reps), func(g int) {
		groups[g] = buildGroup(conn, d, sigs[reps[g]], int32(reps[g]), pair)
	})

	np := d.NumPatches()
	pl := &sweepPlan{
		graphs:     make([][]*graph.PatchGraph, na),
		dags:       make([]*graph.PatchDAG, na),
		patchPrio:  make([][]int64, na),
		vertexPrio: make([][][]int32, na),
		lagged:     make([][]graph.CellEdge, na),
		groups:     len(reps),
	}
	for a := range na {
		g := &groups[groupOf[a]]
		pl.dags[a] = g.dag
		pl.patchPrio[a] = g.patchPrio
		pl.vertexPrio[a] = g.vertexPrio
		pl.lagged[a] = g.lagged
		pl.laggedEdges += len(g.lagged)
		pl.cellSCCs += g.cellSCCs
		pl.patchSCCs += g.patchSCCs
		if a == reps[groupOf[a]] {
			pl.graphs[a] = g.graphs
			continue
		}
		copies := make([]graph.PatchGraph, np)
		pl.graphs[a] = make([]*graph.PatchGraph, np)
		for p, pg := range g.graphs {
			copies[p] = *pg
			copies[p].Angle = int32(a)
			pl.graphs[a][p] = &copies[p]
		}
	}
	return pl
}

// buildGroup builds the shared plan of one signature group, recording
// angle (the group's representative) in its graphs.
func buildGroup(conn *graph.Connectivity, d *mesh.Decomposition, sig graph.Signature, angle int32, pair priority.Pair) groupPlan {
	var g groupPlan
	// Cyclic meshes: select the deterministic feedback-edge set and lag
	// it, so the per-patch graphs the programs run on are acyclic at the
	// cell level. Acyclic meshes yield an empty set and bitwise unchanged
	// graphs.
	g.lagged = conn.FeedbackEdges(sig)
	if len(g.lagged) > 0 {
		comp, n := conn.CellSCC(sig)
		g.cellSCCs, _ = graph.NontrivialSCCs(comp, n)
	}
	g.graphs = conn.PatchGraphs(d, sig, angle, g.lagged)
	g.dag = conn.PatchDAG(d, sig)
	if comp, n := g.dag.SCC(); n < g.dag.N {
		g.patchSCCs, _ = graph.NontrivialSCCs(comp, n)
	}
	g.patchPrio = priority.PatchPriorities(pair.Patch, g.dag)
	g.vertexPrio = make([][]int32, len(g.graphs))
	for p, pg := range g.graphs {
		g.vertexPrio[p] = priority.VertexPriorities(pair.Vertex, pg)
	}
	return g
}

// parallelFor calls f(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, each taking the next index as it becomes free.
func parallelFor(n int, f func(i int)) {
	workers := min(goruntime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
