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
//
// A built graph is immutable. The directions of one face-sign signature
// group (see Signature) have equal graphs but for Angle, and a solver gives
// them shallow copies that share every slice of one build — Cells,
// InDegree, the adjacency, the stream plan and the lagged lists — so no
// reader may write to them.
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
// construction beyond omega. It tabulates the whole mesh first; to build
// many graphs, use one Connectivity and its PatchGraphs.
func BuildPatchGraph(d *mesh.Decomposition, p mesh.PatchID, omega geom.Vec3, angle int32) *PatchGraph {
	return BuildPatchGraphLagged(d, p, omega, angle, nil)
}

// BuildPatchGraphLagged constructs G_{p,t} with the given feedback edges
// lagged: they are excluded from in-degrees and adjacency and surface as
// the patch graph's LagIn/LagOut lists instead. A nil/empty lagged set is
// identical to BuildPatchGraph.
func BuildPatchGraphLagged(d *mesh.Decomposition, p mesh.PatchID, omega geom.Vec3, angle int32, lagged []CellEdge) *PatchGraph {
	c := NewConnectivity(d.Mesh)
	lagIn, lagOut := laggedSets(lagged)
	return c.patchGraph(d, p, c.Signature(omega), angle, lagIn, lagOut, newPatchScratch(d))
}

// BuildAllPatchGraphs builds G_{p,t} for every patch for one direction.
func BuildAllPatchGraphs(d *mesh.Decomposition, omega geom.Vec3, angle int32) []*PatchGraph {
	return BuildAllPatchGraphsLagged(d, omega, angle, nil)
}

// BuildAllPatchGraphsLagged builds G_{p,t} for every patch for one
// direction with the given feedback edges lagged (see
// BuildPatchGraphLagged).
func BuildAllPatchGraphsLagged(d *mesh.Decomposition, omega geom.Vec3, angle int32, lagged []CellEdge) []*PatchGraph {
	c := NewConnectivity(d.Mesh)
	return c.PatchGraphs(d, c.Signature(omega), angle, lagged)
}

// patchScratch counts the downwind patches of one patch at a time: the
// stream plan of a patch graph, the successor list of a patch DAG node.
// One scratch serves any number of patches: reset leaves it as it was.
type patchScratch struct {
	// slotOf maps a patch to its index among the counted ones (first-seen
	// order, then ascending after sorted), -1 for a patch not counted.
	slotOf []int32
	// seen lists the counted patches, edges their counts in first-seen
	// order, counts in the order of seen once sorted.
	seen          []mesh.PatchID
	edges, counts []int32
}

func newPatchScratch(d *mesh.Decomposition) *patchScratch {
	ps := &patchScratch{slotOf: make([]int32, d.NumPatches())}
	for i := range ps.slotOf {
		ps.slotOf[i] = -1
	}
	return ps
}

// count records one edge into patch q.
func (ps *patchScratch) count(q mesh.PatchID) {
	slot := ps.slotOf[q]
	if slot < 0 {
		slot = int32(len(ps.seen))
		ps.slotOf[q] = slot
		ps.seen = append(ps.seen, q)
		ps.edges = append(ps.edges, 0)
	}
	ps.edges[slot]++
}

// sorted returns the counted patches in ascending order with their edge
// counts alongside, and renumbers slotOf to that order. Both slices are
// the scratch's own, valid until reset.
func (ps *patchScratch) sorted() (patches []mesh.PatchID, counts []int32) {
	slices.Sort(ps.seen)
	ps.counts = ps.counts[:0]
	for final, q := range ps.seen {
		ps.counts = append(ps.counts, ps.edges[ps.slotOf[q]])
		ps.slotOf[q] = int32(final)
	}
	return ps.seen, ps.counts
}

// reset forgets the counted patches.
func (ps *patchScratch) reset() {
	for _, q := range ps.seen {
		ps.slotOf[q] = -1
	}
	ps.seen, ps.edges = ps.seen[:0], ps.edges[:0]
}

// plan derives g's stream plan from its filled RemoteAdj: Targets
// ascending, TargetEdges alongside, every edge stamped with its slot. It
// walks the remote edges only, a small share of what the two passes of
// patchGraph visit.
func (ps *patchScratch) plan(g *PatchGraph) {
	for i := range g.RemoteAdj {
		ps.count(g.RemoteAdj[i].ToPatch)
	}
	targets, counts := ps.sorted()
	defer ps.reset()
	k := len(targets)
	if k == 0 {
		return
	}
	if k > math.MaxUint16+1 {
		panic(fmt.Sprintf("graph: patch %d has %d downwind patches, more than a RemoteEdge.Slot can number", g.Patch, k))
	}
	g.Targets = slices.Clone(targets)
	g.TargetEdges = slices.Clone(counts)
	for i := range g.RemoteAdj {
		e := &g.RemoteAdj[i]
		e.Slot = uint16(ps.slotOf[e.ToPatch])
	}
}

// patchGraph builds G_{p,t} of signature sig from the table.
func (c *Connectivity) patchGraph(d *mesh.Decomposition, p mesh.PatchID, sig Signature, angle int32, lagIn, lagOut map[int64]int32, ps *patchScratch) *PatchGraph {
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
	for v, cell := range cells {
		lo := c.start[cell]
		for s := lo; s < c.start[cell+1]; s++ {
			face := int8(s - lo)
			switch sig[s] {
			case faceIn:
				if lagIn != nil {
					if idx, ok := lagIn[lagKey(cell, face)]; ok {
						// Lagged incoming face: fed from the old-flux store,
						// no in-degree.
						g.LagIn = append(g.LagIn, LagIn{V: int32(v), Face: face, Idx: idx})
						continue
					}
				}
				// Incoming face with an upwind neighbour (local or remote).
				g.InDegree[v]++
			case faceOut:
				if lagOut != nil {
					if idx, ok := lagOut[lagKey(cell, face)]; ok {
						// Lagged outgoing face: written to the new-flux
						// store, not propagated downwind this sweep.
						g.LagOut = append(g.LagOut, LagOut{V: int32(v), SrcFace: face, Idx: idx})
						continue
					}
				}
				if d.CellPatch[c.nbr[s]] == p {
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
	// Second pass: fill edges, each vertex's in face order; the table
	// holds the face through which the downwind neighbour receives.
	for v, cell := range cells {
		l, r := g.LocalStart[v], g.RemoteStart[v]
		lo := c.start[cell]
		for s := lo; s < c.start[cell+1]; s++ {
			if sig[s] != faceOut {
				continue
			}
			face := int8(s - lo)
			if lagOut != nil {
				if _, skip := lagOut[lagKey(cell, face)]; skip {
					continue
				}
			}
			nb := c.nbr[s]
			if d.CellPatch[nb] == p {
				g.LocalAdj[l] = LocalEdge{To: d.Local[nb], SrcFace: face, Face: c.back[s]}
				l++
			} else {
				g.RemoteAdj[r] = RemoteEdge{
					ToPatch: d.CellPatch[nb],
					To:      d.Local[nb],
					SrcFace: face,
					Face:    c.back[s],
				}
				r++
			}
		}
	}
	ps.plan(g)
	return g
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

// BuildPatchDAG projects the cell-level dependencies onto patches. It
// tabulates the mesh first; to build DAGs for many directions, use one
// Connectivity and its PatchDAG.
func BuildPatchDAG(d *mesh.Decomposition, omega geom.Vec3) *PatchDAG {
	c := NewConnectivity(d.Mesh)
	return c.PatchDAG(d, c.Signature(omega))
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
