// Package graph builds the directed acyclic graphs induced by sweeping a
// mesh (paper §II-C): vertices are (cell, angle) pairs, and an edge (u, v)
// means v's kernel needs u's outgoing face flux. The package provides the
// per-(patch, angle) subgraphs G_{p,t} the sweep patch-programs run on
// (paper §V-A), the patch-level DAG used by patch priorities (§V-D), a
// global topological order for serial reference sweeps, and graph
// coarsening (§V-E).
package graph

import (
	"fmt"
	"math"
	"slices"

	"jsweep/internal/geom"
	"jsweep/internal/mesh"
)

// upwindEps guards the Ω·n classification against faces almost parallel to
// the sweep direction: |Ω·n| below this is treated as "no dependency"
// (grazing faces carry no flux either way). Shared with the transport
// kernels via mesh.UpwindEps.
const upwindEps = mesh.UpwindEps

// LocalEdge is a downwind edge between two cells of the same patch.
type LocalEdge struct {
	// To is the local vertex index of the downwind cell.
	To int32
	// SrcFace is the face index of the upwind cell through which the flux
	// leaves (indexes the kernel's outgoing-flux slot).
	SrcFace int8
	// Face is the face index of the *downwind* cell through which the flux
	// enters (what the kernel needs to place the incoming flux).
	Face int8
}

// RemoteEdge is a downwind edge into another patch.
type RemoteEdge struct {
	// ToPatch is the downwind patch.
	ToPatch mesh.PatchID
	// To is the local vertex index within ToPatch.
	To int32
	// SrcFace is the face index of the upwind cell through which the flux
	// leaves.
	SrcFace int8
	// Face is the face index of the downwind cell receiving the flux.
	Face int8
	// Slot is ToPatch's index in the owning graph's Targets list: the
	// stream-plan slot whose in-progress payload this edge's record goes
	// into (PatchGraph.Targets[Slot] == ToPatch). It sits in what was the
	// struct's padding, so an edge is still 12 bytes.
	Slot uint16
}

// LagIn is a lagged incoming edge of a patch graph: local vertex V's face
// Face is fed from slot Idx of the previous iteration's lagged-flux store
// instead of being delivered during the sweep (so it contributes no
// in-degree).
type LagIn struct {
	V    int32
	Face int8
	// Idx is the edge's index in the angle's lagged-edge list — the slot id
	// of the old/new flux stores.
	Idx int32
}

// LagOut is a lagged outgoing edge: after local vertex V solves, its
// outgoing flux through SrcFace is written to slot Idx of the lagged-flux
// store for the next iteration, instead of being propagated downwind now.
type LagOut struct {
	V       int32
	SrcFace int8
	Idx     int32
}

// PatchGraph is the sweep dependency subgraph G_{p,t} of patch p in one
// direction: local vertices (the patch's cells), their in-degrees, and the
// downwind adjacency split into local and remote edges, both in CSR layout.
// On cyclic meshes the feedback edges selected for lagging are excluded
// from the in-degrees and adjacency and recorded in LagIn/LagOut instead.
type PatchGraph struct {
	Patch mesh.PatchID
	Angle int32

	// Cells maps local vertex index -> global cell id (ascending).
	Cells []mesh.CellID

	// InDegree counts the upwind dependencies of each local vertex,
	// including those satisfied from other patches but excluding lagged
	// edges.
	InDegree []int32

	// Local downwind edges, CSR: edges LocalAdj[LocalStart[v]:LocalStart[v+1]].
	LocalStart []int32
	LocalAdj   []LocalEdge

	// Remote downwind edges, CSR.
	RemoteStart []int32
	RemoteAdj   []RemoteEdge

	// Targets is the stream plan: the distinct downwind patches of
	// RemoteAdj in strictly ascending order (lagged edges excluded — they
	// send nothing during the sweep). A program keeps one outgoing payload
	// per entry and flushes them in this order, so streams of one Compute
	// leave sorted by target patch without sorting anything at run time.
	// TargetEdges[i] counts the RemoteAdj edges into Targets[i]: the most
	// records slot i can see over one sweep.
	Targets     []mesh.PatchID
	TargetEdges []int32

	// LagIn / LagOut list this patch's ends of the lagged feedback edges
	// (both empty on acyclic meshes), in ascending (cell, face) order.
	LagIn  []LagIn
	LagOut []LagOut
}

// NumVertices returns the number of local vertices.
func (g *PatchGraph) NumVertices() int { return len(g.Cells) }

// LocalEdges returns the local downwind edges of vertex v.
func (g *PatchGraph) LocalEdges(v int32) []LocalEdge {
	return g.LocalAdj[g.LocalStart[v]:g.LocalStart[v+1]]
}

// RemoteEdges returns the remote downwind edges of vertex v.
func (g *PatchGraph) RemoteEdges(v int32) []RemoteEdge {
	return g.RemoteAdj[g.RemoteStart[v]:g.RemoteStart[v+1]]
}

// NumEdges returns (local, remote) edge counts.
func (g *PatchGraph) NumEdges() (local, remote int) {
	return len(g.LocalAdj), len(g.RemoteAdj)
}

// BuildPatchGraph constructs G_{p,t} for patch p of decomposition d in
// direction omega. The angle id is recorded but does not influence the
// construction beyond omega.
func BuildPatchGraph(d *mesh.Decomposition, p mesh.PatchID, omega geom.Vec3, angle int32) *PatchGraph {
	return buildPatchGraph(d, p, omega, angle, nil, nil, newPlanScratch(d))
}

// BuildPatchGraphLagged constructs G_{p,t} with the given feedback edges
// lagged: they are excluded from in-degrees and adjacency and surface as
// the patch graph's LagIn/LagOut lists instead. A nil/empty lagged set is
// identical to BuildPatchGraph.
func BuildPatchGraphLagged(d *mesh.Decomposition, p mesh.PatchID, omega geom.Vec3, angle int32, lagged []CellEdge) *PatchGraph {
	lagIn, lagOut := laggedSets(lagged)
	return buildPatchGraph(d, p, omega, angle, lagIn, lagOut, newPlanScratch(d))
}

// planScratch is the scratch buildPatchGraph derives a stream plan with.
// One scratch serves any number of builds: each build leaves it as it
// found it.
type planScratch struct {
	// slotOf maps a patch to its slot in the build in progress (first-seen
	// order, then final order), -1 for a patch that is not a target.
	slotOf []int32
	// seen lists the targets in first-seen order, edges their edge counts.
	seen  []mesh.PatchID
	edges []int32
}

func newPlanScratch(d *mesh.Decomposition) *planScratch {
	ps := &planScratch{slotOf: make([]int32, d.NumPatches())}
	for i := range ps.slotOf {
		ps.slotOf[i] = -1
	}
	return ps
}

// plan derives g's stream plan from its filled RemoteAdj: Targets
// ascending, TargetEdges alongside, every edge stamped with its slot. It
// walks the remote edges only, a small share of what the two mesh passes
// of buildPatchGraph visit, and leaves those passes as they were.
func (ps *planScratch) plan(g *PatchGraph) {
	for i := range g.RemoteAdj {
		to := g.RemoteAdj[i].ToPatch
		slot := ps.slotOf[to]
		if slot < 0 {
			slot = int32(len(ps.seen))
			ps.slotOf[to] = slot
			ps.seen = append(ps.seen, to)
			ps.edges = append(ps.edges, 0)
		}
		ps.edges[slot]++
	}
	k := len(ps.seen)
	if k == 0 {
		return
	}
	if k > math.MaxUint16+1 {
		panic(fmt.Sprintf("graph: patch %d has %d downwind patches, more than a RemoteEdge.Slot can number", g.Patch, k))
	}
	g.Targets = make([]mesh.PatchID, k)
	copy(g.Targets, ps.seen)
	slices.Sort(g.Targets)
	g.TargetEdges = make([]int32, k)
	for final, patch := range g.Targets {
		g.TargetEdges[final] = ps.edges[ps.slotOf[patch]]
		ps.slotOf[patch] = int32(final)
	}
	for i := range g.RemoteAdj {
		e := &g.RemoteAdj[i]
		e.Slot = uint16(ps.slotOf[e.ToPatch])
	}
	for _, patch := range g.Targets {
		ps.slotOf[patch] = -1
	}
	ps.seen, ps.edges = ps.seen[:0], ps.edges[:0]
}

func buildPatchGraph(d *mesh.Decomposition, p mesh.PatchID, omega geom.Vec3, angle int32, lagIn, lagOut map[int64]int32, plan *planScratch) *PatchGraph {
	m := d.Mesh
	cells := d.Cells[p]
	n := len(cells)
	g := &PatchGraph{
		Patch:       p,
		Angle:       angle,
		Cells:       cells,
		InDegree:    make([]int32, n),
		LocalStart:  make([]int32, n+1),
		RemoteStart: make([]int32, n+1),
	}
	// First pass: count edges per vertex.
	for v, c := range cells {
		nf := m.NumFaces(c)
		for i := 0; i < nf; i++ {
			f := m.Face(c, i)
			dot := omega.Dot(f.Normal)
			if f.Neighbor < 0 {
				continue
			}
			if dot < -upwindEps {
				if lagIn != nil {
					if idx, ok := lagIn[lagKey(c, int8(i))]; ok {
						// Lagged incoming face: fed from the old-flux store,
						// no in-degree.
						g.LagIn = append(g.LagIn, LagIn{V: int32(v), Face: int8(i), Idx: idx})
						continue
					}
				}
				// Incoming face with an upwind neighbour (local or remote).
				g.InDegree[v]++
			} else if dot > upwindEps {
				if lagOut != nil {
					if idx, ok := lagOut[lagKey(c, int8(i))]; ok {
						// Lagged outgoing face: written to the new-flux
						// store, not propagated downwind this sweep.
						g.LagOut = append(g.LagOut, LagOut{V: int32(v), SrcFace: int8(i), Idx: idx})
						continue
					}
				}
				if d.CellPatch[f.Neighbor] == p {
					g.LocalStart[v+1]++
				} else {
					g.RemoteStart[v+1]++
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		g.LocalStart[v+1] += g.LocalStart[v]
		g.RemoteStart[v+1] += g.RemoteStart[v]
	}
	g.LocalAdj = make([]LocalEdge, g.LocalStart[n])
	g.RemoteAdj = make([]RemoteEdge, g.RemoteStart[n])
	lpos := make([]int32, n)
	rpos := make([]int32, n)
	copy(lpos, g.LocalStart[:n])
	copy(rpos, g.RemoteStart[:n])
	// Second pass: fill edges. For a downwind face of cell c to neighbour
	// nb, the receiving face index on nb must be found (the face of nb
	// whose neighbour is c).
	for v, c := range cells {
		nf := m.NumFaces(c)
		for i := 0; i < nf; i++ {
			f := m.Face(c, i)
			if f.Neighbor < 0 {
				continue
			}
			dot := omega.Dot(f.Normal)
			if dot <= upwindEps {
				continue
			}
			if lagOut != nil {
				if _, skip := lagOut[lagKey(c, int8(i))]; skip {
					continue
				}
			}
			nb := f.Neighbor
			back := backFace(m, nb, c)
			if d.CellPatch[nb] == p {
				g.LocalAdj[lpos[v]] = LocalEdge{To: d.Local[nb], SrcFace: int8(i), Face: back}
				lpos[v]++
			} else {
				g.RemoteAdj[rpos[v]] = RemoteEdge{
					ToPatch: d.CellPatch[nb],
					To:      d.Local[nb],
					SrcFace: int8(i),
					Face:    back,
				}
				rpos[v]++
			}
		}
	}
	plan.plan(g)
	return g
}

// backFace returns the face index of cell nb that borders cell c.
func backFace(m mesh.Mesh, nb, c mesh.CellID) int8 {
	nf := m.NumFaces(nb)
	for i := 0; i < nf; i++ {
		if m.Face(nb, i).Neighbor == c {
			return int8(i)
		}
	}
	panic(fmt.Sprintf("graph: face adjacency not reciprocal between cells %d and %d", nb, c))
}

// BuildAllPatchGraphs builds G_{p,t} for every patch for one direction.
func BuildAllPatchGraphs(d *mesh.Decomposition, omega geom.Vec3, angle int32) []*PatchGraph {
	return BuildAllPatchGraphsLagged(d, omega, angle, nil)
}

// BuildAllPatchGraphsLagged builds G_{p,t} for every patch for one
// direction with the given feedback edges lagged (see
// BuildPatchGraphLagged).
func BuildAllPatchGraphsLagged(d *mesh.Decomposition, omega geom.Vec3, angle int32, lagged []CellEdge) []*PatchGraph {
	lagIn, lagOut := laggedSets(lagged)
	out := make([]*PatchGraph, d.NumPatches())
	plan := newPlanScratch(d)
	for p := range out {
		out[p] = buildPatchGraph(d, mesh.PatchID(p), omega, angle, lagIn, lagOut, plan)
	}
	return out
}

// PatchDAG is the patch-level dependency digraph for one direction: patch q
// is a successor of p when at least one cell of p feeds a cell of q. Edge
// weights count the crossing mesh faces (used as communication volumes).
type PatchDAG struct {
	N int
	// Succ[p] lists downwind patches, parallel with Weight[p].
	Succ   [][]int32
	Weight [][]int32
	// InDeg is the number of upwind patches of each patch.
	InDeg []int32
}

// BuildPatchDAG projects the cell-level dependencies onto patches.
func BuildPatchDAG(d *mesh.Decomposition, omega geom.Vec3) *PatchDAG {
	m := d.Mesh
	n := d.NumPatches()
	type key struct{ from, to int32 }
	cnt := make(map[key]int32)
	nc := m.NumCells()
	for c := 0; c < nc; c++ {
		p := d.CellPatch[c]
		nf := m.NumFaces(mesh.CellID(c))
		for i := 0; i < nf; i++ {
			f := m.Face(mesh.CellID(c), i)
			if f.Neighbor < 0 || d.CellPatch[f.Neighbor] == p {
				continue
			}
			if omega.Dot(f.Normal) > upwindEps {
				cnt[key{int32(p), int32(d.CellPatch[f.Neighbor])}]++
			}
		}
	}
	dag := &PatchDAG{
		N:      n,
		Succ:   make([][]int32, n),
		Weight: make([][]int32, n),
		InDeg:  make([]int32, n),
	}
	// Map order feeds the per-patch successor lists, which sortParallel
	// fully determinizes right below ((from,to) keys are unique, so the
	// sort has no ties). //jsweep:nondeterministic-ok
	for k, w := range cnt {
		dag.Succ[k.from] = append(dag.Succ[k.from], k.to)
		dag.Weight[k.from] = append(dag.Weight[k.from], w)
		dag.InDeg[k.to]++
	}
	// Deterministic order.
	for p := 0; p < n; p++ {
		sortParallel(dag.Succ[p], dag.Weight[p])
	}
	return dag
}

func sortParallel(a, w []int32) {
	// Insertion sort: successor lists are short.
	for i := 1; i < len(a); i++ {
		x, y := a[i], w[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1], w[j+1] = a[j], w[j]
			j--
		}
		a[j+1], w[j+1] = x, y
	}
}

// IsAcyclic reports whether the patch DAG has no cycles (Kahn's algorithm).
// Patch-level cycles can exist even when the cell-level graph is acyclic
// (two patches can feed each other through different cell pairs) — that is
// exactly the zig-zag situation of paper Fig. 4 requiring partial
// computation, so a cyclic PatchDAG is not an error for the sweep; this
// predicate exists for analysis and tests.
func (dag *PatchDAG) IsAcyclic() bool {
	indeg := make([]int32, dag.N)
	copy(indeg, dag.InDeg)
	queue := make([]int32, 0, dag.N)
	for p := 0; p < dag.N; p++ {
		if indeg[p] == 0 {
			queue = append(queue, int32(p))
		}
	}
	seen := 0
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, q := range dag.Succ[p] {
			indeg[q]--
			if indeg[q] == 0 {
				queue = append(queue, q)
			}
		}
	}
	return seen == dag.N
}

// GlobalTopoOrder returns a topological order of all mesh cells for
// direction omega using Kahn's algorithm, or an error when the sweep graph
// is cyclic (callers that can lag flux on feedback edges should use
// GlobalTopoOrderLagged instead, which never fails). This is the serial
// reference schedule; on acyclic meshes the order is identical to the
// lagged variant's.
func GlobalTopoOrder(m mesh.Mesh, omega geom.Vec3) ([]mesh.CellID, error) {
	order, lagged := GlobalTopoOrderLagged(m, omega)
	if len(lagged) > 0 {
		return nil, fmt.Errorf("graph: sweep dependencies for Ω=%v contain a cycle (%d feedback edges would need lagging)", omega, len(lagged))
	}
	return order, nil
}

// CellLevels returns the BFS wavefront level of every cell for direction
// omega (level 0 = cells with no upwind dependency). Errors on cycles;
// cycle-tolerant callers should use CellLevelsLagged.
func CellLevels(m mesh.Mesh, omega geom.Vec3) ([]int32, error) {
	level, lagged := CellLevelsLagged(m, omega)
	if len(lagged) > 0 {
		return nil, fmt.Errorf("graph: cycle detected computing cell levels for Ω=%v (%d feedback edges would need lagging)", omega, len(lagged))
	}
	return level, nil
}
