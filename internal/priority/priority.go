// Package priority implements the two-level priority strategies of paper
// §V-D: patch-level priorities prior(p) computed on the patch dependency
// DAG of each angle, vertex-level priorities used inside a patch-program's
// ready queue, and the combination prior(p,a) = prior(a)·C + prior(p).
//
// Three strategies are provided, as in the paper:
//
//   - BFS  — breadth-first level from the sweep sources; upwind work first.
//   - LDCP — Longest Distance on Critical Path: work with the longest
//     remaining downstream chain first (paper: for structured meshes).
//   - SLBD — Shortest Local Boundary Distance: a DFS-flavoured strategy
//     preferring work closest to a patch/domain boundary, so data streams
//     leave for neighbours as early as possible.
//
// Larger priority value = scheduled earlier, everywhere in this codebase.
package priority

import (
	"fmt"

	"jsweep/internal/graph"
)

// Strategy selects a priority heuristic.
type Strategy int

const (
	// BFS prioritizes by breadth-first wavefront level (upwind first).
	BFS Strategy = iota
	// LDCP prioritizes by longest distance on the critical path.
	LDCP
	// SLBD prioritizes by shortest distance to a boundary.
	SLBD
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case BFS:
		return "BFS"
	case LDCP:
		return "LDCP"
	case SLBD:
		return "SLBD"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a name ("BFS", "LDCP", "SLBD") to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "BFS", "bfs":
		return BFS, nil
	case "LDCP", "ldcp":
		return LDCP, nil
	case "SLBD", "slbd":
		return SLBD, nil
	}
	return 0, fmt.Errorf("priority: unknown strategy %q", name)
}

// Pair is a two-level strategy choice: Patch orders patch-programs in the
// runtime, Vertex orders ready vertices inside one program. The paper
// writes pairs as "patch+vertex", e.g. SLBD+SLBD.
type Pair struct {
	Patch  Strategy
	Vertex Strategy
}

// String renders the paper's "patch+vertex" notation.
func (p Pair) String() string { return p.Patch.String() + "+" + p.Vertex.String() }

// AngleFactor is the constant C in prior(p,a) = prior(a)*C + prior(p): it
// makes the angle component always dominate the patch component so
// patch-programs of the same angle are scheduled consecutively (§V-D).
const AngleFactor = int64(1) << 24

// Combine folds an angle priority and a patch priority into the scheduling
// key used by the runtime. Angle priorities are typically -angleID so all
// programs of one sweep direction drain before the next direction starts.
func Combine(anglePrior, patchPrior int64) int64 {
	return anglePrior*AngleFactor + patchPrior
}

// AnglePriority returns prior(a) for an angle id: earlier angle ids run
// first. Keeping one angle's wavefront moving delivers streams to downwind
// patches as fast as possible.
func AnglePriority(angle int32) int64 { return -int64(angle) }

// PatchPriorities computes prior(p) for every patch of the given angle's
// patch-level DAG. Cyclic patch DAGs (the zig-zag case) are handled by
// treating the longest acyclic propagation as the metric: Bellman-Ford
// style relaxation capped at N rounds.
func PatchPriorities(s Strategy, dag *graph.PatchDAG) []int64 {
	switch s {
	case BFS:
		return negate(forwardDistance(dag))
	case LDCP:
		return backwardHeight(dag)
	case SLBD:
		return negate(distanceToSink(dag))
	}
	panic(fmt.Sprintf("priority: unknown strategy %d", int(s)))
}

func negate(xs []int64) []int64 {
	for i := range xs {
		xs[i] = -xs[i]
	}
	return xs
}

// forwardDistance returns, per patch, the BFS level from the sources
// (in-degree 0 patches). On cyclic graphs, unreachable nodes inherit the
// maximum finite level + 1.
func forwardDistance(dag *graph.PatchDAG) []int64 {
	const unset = int64(-1)
	dist := make([]int64, dag.N)
	for i := range dist {
		dist[i] = unset
	}
	queue := make([]int32, 0, dag.N)
	for p := 0; p < dag.N; p++ {
		if dag.InDeg[p] == 0 {
			dist[p] = 0
			queue = append(queue, int32(p))
		}
	}
	var maxSeen int64
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, q := range dag.Succ[p] {
			if dist[q] == unset {
				dist[q] = dist[p] + 1
				if dist[q] > maxSeen {
					maxSeen = dist[q]
				}
				queue = append(queue, q)
			}
		}
	}
	for i := range dist {
		if dist[i] == unset {
			dist[i] = maxSeen + 1
		}
	}
	return dist
}

// backwardHeight returns, per patch, the length of the longest downstream
// path (LDCP). Computed by relaxation so cyclic projections terminate: at
// most N rounds, heights capped at N.
func backwardHeight(dag *graph.PatchDAG) []int64 {
	h := make([]int64, dag.N)
	cap64 := int64(dag.N)
	for round := 0; round < dag.N; round++ {
		changed := false
		for p := 0; p < dag.N; p++ {
			for _, q := range dag.Succ[p] {
				if nh := h[q] + 1; nh > h[p] && nh <= cap64 {
					h[p] = nh
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return h
}

// distanceToSink returns, per patch, the shortest forward distance to a
// patch with no successors (the downwind boundary). SLBD prefers patches
// whose results reach unfinished downwind neighbours soonest.
func distanceToSink(dag *graph.PatchDAG) []int64 {
	const inf = int64(1) << 40
	dist := make([]int64, dag.N)
	for i := range dist {
		dist[i] = inf
	}
	// Multi-source BFS on reversed edges from sinks.
	pred := make([][]int32, dag.N)
	for p := 0; p < dag.N; p++ {
		for _, q := range dag.Succ[p] {
			pred[q] = append(pred[q], int32(p))
		}
	}
	queue := make([]int32, 0, dag.N)
	for p := 0; p < dag.N; p++ {
		if len(dag.Succ[p]) == 0 {
			dist[p] = 0
			queue = append(queue, int32(p))
		}
	}
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		for _, p := range pred[q] {
			if dist[p] > dist[q]+1 {
				dist[p] = dist[q] + 1
				queue = append(queue, p)
			}
		}
	}
	var maxSeen int64
	for _, d := range dist {
		if d != inf && d > maxSeen {
			maxSeen = d
		}
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = maxSeen + 1
		}
	}
	return dist
}

// VertexPriorities computes the in-patch ready-queue priority of every
// local vertex of a patch graph. Larger = dequeued first.
func VertexPriorities(s Strategy, g *graph.PatchGraph) []int32 {
	switch s {
	case BFS:
		return negate32(vertexForwardLevel(g))
	case LDCP:
		return vertexHeight(g)
	case SLBD:
		return negate32(vertexBoundaryDistance(g))
	}
	panic(fmt.Sprintf("priority: unknown strategy %d", int(s)))
}

func negate32(xs []int32) []int32 {
	for i := range xs {
		xs[i] = -xs[i]
	}
	return xs
}

// vertexForwardLevel is the BFS level from the patch's local sources,
// following local edges only (remote inputs arrive whenever they arrive;
// the local wavefront is what the queue can order).
func vertexForwardLevel(g *graph.PatchGraph) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	localIn := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		for _, e := range g.LocalEdges(v) {
			localIn[e.To]++
		}
	}
	queue := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if localIn[v] == 0 {
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range g.LocalEdges(v) {
			if l := level[v] + 1; l > level[e.To] {
				level[e.To] = l
			}
			localIn[e.To]--
			if localIn[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return level
}

// vertexHeight is the longest local downstream path (LDCP within a patch).
func vertexHeight(g *graph.PatchGraph) []int32 {
	n := g.NumVertices()
	h := make([]int32, n)
	order, ok := localTopo(g)
	if !ok {
		return h // cyclic local graph: flat priorities
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, e := range g.LocalEdges(v) {
			if nh := h[e.To] + 1; nh > h[v] {
				h[v] = nh
			}
		}
	}
	return h
}

// vertexBoundaryDistance is the number of local hops from a vertex to the
// nearest vertex owning a remote (inter-patch) downwind edge. Vertices
// whose data unblocks other patches fastest get the highest priority —
// this is SLBD's "closest to patch boundary" preference.
func vertexBoundaryDistance(g *graph.PatchGraph) []int32 {
	n := g.NumVertices()
	const inf = int32(1) << 30
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if len(g.RemoteEdges(v)) > 0 {
			dist[v] = 0
			queue = append(queue, v)
		} else {
			dist[v] = inf
		}
	}
	// BFS on reversed local edges, held in CSR: predecessors of v are
	// pred[predStart[v]:predStart[v+1]], in ascending order.
	predStart := make([]int32, n+1)
	for _, e := range g.LocalAdj {
		predStart[e.To+1]++
	}
	for v := 0; v < n; v++ {
		predStart[v+1] += predStart[v]
	}
	pred := make([]int32, len(g.LocalAdj))
	next := make([]int32, n)
	copy(next, predStart[:n])
	for v := int32(0); v < int32(n); v++ {
		for _, e := range g.LocalEdges(v) {
			pred[next[e.To]] = v
			next[e.To]++
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range pred[predStart[v]:predStart[v+1]] {
			if dist[u] > dist[v]+1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	var maxSeen int32
	for _, d := range dist {
		if d != inf && d > maxSeen {
			maxSeen = d
		}
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = maxSeen + 1
		}
	}
	return dist
}

// localTopo returns a topological order of the local subgraph, or ok=false
// if it is cyclic.
func localTopo(g *graph.PatchGraph) ([]int32, bool) {
	n := g.NumVertices()
	localIn := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		for _, e := range g.LocalEdges(v) {
			localIn[e.To]++
		}
	}
	queue := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if localIn[v] == 0 {
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range g.LocalEdges(v) {
			localIn[e.To]--
			if localIn[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return queue, len(queue) == n
}
