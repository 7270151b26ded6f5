package graph

import (
	"fmt"
	"slices"
	"strings"

	"jsweep/internal/geom"
	"jsweep/internal/mesh"
)

// Connectivity is the angle-independent face table of a mesh (the mesh's
// topology as one flat covering relation, as in Sieve — Knepley & Karpeev,
// arXiv:0908.4427). It is laid out in CSR over (cell, face) slots: face i
// of cell c is slot start[c]+i. Per slot it holds the neighbour across the
// face (-1 on the domain boundary), the index of the same face as seen from
// that neighbour, and the face's outward normal.
//
// Every direction-dependent build of this package — the cell-level sweep
// graph and its feedback edges, the patch graphs, the patch DAG — reads the
// table and a Signature instead of asking the mesh face by face, so a solver
// builds the table once and shares it across directions. It is immutable
// once built and safe for concurrent readers.
type Connectivity struct {
	start  []int32
	nbr    []mesh.CellID
	back   []int8
	normal []geom.Vec3
}

// NewConnectivity tabulates every face of m. It panics when face adjacency
// is not reciprocal (a neighbour that does not list the cell back), which a
// valid mesh never produces.
func NewConnectivity(m mesh.Mesh) *Connectivity {
	n := m.NumCells()
	c := &Connectivity{start: make([]int32, n+1)}
	for cell := 0; cell < n; cell++ {
		c.start[cell+1] = c.start[cell] + int32(m.NumFaces(mesh.CellID(cell)))
	}
	total := c.start[n]
	c.nbr = make([]mesh.CellID, total)
	c.back = make([]int8, total)
	c.normal = make([]geom.Vec3, total)
	for cell := 0; cell < n; cell++ {
		s := c.start[cell]
		for i := range c.start[cell+1] - s {
			f := m.Face(mesh.CellID(cell), int(i))
			c.nbr[s+i] = f.Neighbor
			c.normal[s+i] = f.Normal
		}
	}
	for cell := 0; cell < n; cell++ {
		for s := c.start[cell]; s < c.start[cell+1]; s++ {
			c.back[s] = -1
			if nb := c.nbr[s]; nb >= 0 {
				c.back[s] = c.backFace(nb, mesh.CellID(cell))
			}
		}
	}
	return c
}

// backFace returns the face index of cell nb that borders cell c.
func (c *Connectivity) backFace(nb, cell mesh.CellID) int8 {
	lo, hi := c.start[nb], c.start[nb+1]
	for s := lo; s < hi; s++ {
		if c.nbr[s] == cell {
			return int8(s - lo)
		}
	}
	panic(fmt.Sprintf("graph: face adjacency not reciprocal between cells %d and %d", nb, cell))
}

// NumCells returns the number of cells the table covers.
func (c *Connectivity) NumCells() int { return len(c.start) - 1 }

// Face-sign classes of a Signature.
const (
	// faceNone: a boundary face, or |Ω·n| ≤ mesh.UpwindEps (grazing) — no
	// dependency either way.
	faceNone = 0
	// faceOut: Ω·n > UpwindEps — the flux leaves the cell through the face
	// (a downwind edge to the neighbour).
	faceOut = 1
	// faceIn: Ω·n < -UpwindEps — the flux enters through the face (an
	// upwind dependency on the neighbour).
	faceIn = 2
)

// Signature classifies every slot of a Connectivity against one sweep
// direction Ω: one byte per (cell, face) slot, faceOut, faceIn or faceNone
// by the sign of Ω·n against mesh.UpwindEps (boundary faces are faceNone).
// A direction's cell-level sweep graph, its feedback edges, its patch
// graphs and its patch DAG are functions of its signature alone, so
// directions with equal signatures share one build; being a string, a
// Signature is immutable and usable as a map key.
type Signature string

// Signature classifies every face of the table against direction omega.
func (c *Connectivity) Signature(omega geom.Vec3) Signature {
	var b strings.Builder
	b.Grow(len(c.nbr))
	for s, nb := range c.nbr {
		sign := byte(faceNone)
		if nb >= 0 {
			if dot := omega.Dot(c.normal[s]); dot > upwindEps {
				sign = faceOut
			} else if dot < -upwindEps {
				sign = faceIn
			}
		}
		b.WriteByte(sign)
	}
	return Signature(b.String())
}

// adjacency builds the downwind adjacency lists of the cell-level sweep
// graph of signature sig (deterministic: faces in index order). face[c][k]
// is the face index behind adj[c][k]. Storage is CSR: the per-cell lists
// slice into one flat array per result, so a call makes a handful of
// allocations however many cells the mesh has.
func (c *Connectivity) adjacency(sig Signature) (adj [][]int32, face [][]int8) {
	n := c.NumCells()
	// Every interior face is downwind for at most one of its two cells, so
	// the flat arrays never outgrow half the slot count.
	hint := len(c.nbr) / 2
	flatAdj := make([]int32, 0, hint)
	flatFace := make([]int8, 0, hint)
	start := make([]int, n+1)
	for cell := 0; cell < n; cell++ {
		lo := c.start[cell]
		for s := lo; s < c.start[cell+1]; s++ {
			if sig[s] == faceOut {
				flatAdj = append(flatAdj, int32(c.nbr[s]))
				flatFace = append(flatFace, int8(s-lo))
			}
		}
		start[cell+1] = len(flatAdj)
	}
	adj = make([][]int32, n)
	face = make([][]int8, n)
	for cell := 0; cell < n; cell++ {
		lo, hi := start[cell], start[cell+1]
		adj[cell] = flatAdj[lo:hi:hi]
		face[cell] = flatFace[lo:hi:hi]
	}
	return adj, face
}

// CellSCC computes the strongly connected components of the cell-level
// sweep graph of signature sig. An acyclic sweep graph has exactly one
// component per cell.
func (c *Connectivity) CellSCC(sig Signature) (comp []int32, ncomp int) {
	adj, _ := c.adjacency(sig)
	return SCC(adj)
}

// FeedbackEdges selects the deterministic set of cell-level dependency
// edges to lag for signature sig: the DFS back edges of the sweep graph
// (FeedbackArcs over the downwind adjacency, cells rooted in ascending
// order and faces in index order), annotated with the faces the flux
// crosses. Removing them always yields an acyclic graph; on an
// already-acyclic mesh the result is empty. Each edge lies on a cycle, so
// the set is confined to the graph's strongly connected components.
func (c *Connectivity) FeedbackEdges(sig Signature) []CellEdge {
	adj, adjFace := c.adjacency(sig)
	arcs := FeedbackArcs(adj)
	if len(arcs) == 0 {
		return nil
	}
	// Map each arc back to its mesh face. A cell pair can share more than
	// one downwind face in pathological meshes; arcs of equal (from, to)
	// are reported in adjacency (= face) order, so a cursor per pair keeps
	// the mapping aligned.
	cursor := make(map[int64]int, len(arcs))
	edges := make([]CellEdge, 0, len(arcs))
	for _, a := range arcs {
		u, v := a[0], a[1]
		key := int64(u)<<32 | int64(uint32(v))
		k := cursor[key]
		for ; k < len(adj[u]); k++ {
			if adj[u][k] == v {
				break
			}
		}
		cursor[key] = k + 1
		srcFace := adjFace[u][k]
		edges = append(edges, CellEdge{
			From: mesh.CellID(u), To: mesh.CellID(v),
			SrcFace: srcFace, DstFace: c.back[c.start[u]+int32(srcFace)],
		})
	}
	return edges
}

// PatchGraphs builds G_{p,t} for every patch of d (a decomposition of the
// tabulated mesh) in the direction of signature sig, recording angle as the
// graphs' angle id, with the given feedback edges lagged (see
// BuildPatchGraphLagged).
func (c *Connectivity) PatchGraphs(d *mesh.Decomposition, sig Signature, angle int32, lagged []CellEdge) []*PatchGraph {
	lagIn, lagOut := laggedSets(lagged)
	out := make([]*PatchGraph, d.NumPatches())
	ps := newPatchScratch(d)
	for p := range out {
		out[p] = c.patchGraph(d, mesh.PatchID(p), sig, angle, lagIn, lagOut, ps)
	}
	return out
}

// PatchDAG projects the cell-level dependencies of signature sig onto the
// patches of d.
func (c *Connectivity) PatchDAG(d *mesh.Decomposition, sig Signature) *PatchDAG {
	n := d.NumPatches()
	dag := &PatchDAG{
		N:      n,
		Succ:   make([][]int32, n),
		Weight: make([][]int32, n),
		InDeg:  make([]int32, n),
	}
	ps := newPatchScratch(d)
	for p := range n {
		for _, cell := range d.Cells[p] {
			for s := c.start[cell]; s < c.start[cell+1]; s++ {
				if sig[s] != faceOut {
					continue
				}
				if q := d.CellPatch[c.nbr[s]]; q != mesh.PatchID(p) {
					ps.count(q)
				}
			}
		}
		if targets, counts := ps.sorted(); len(targets) > 0 {
			succ := make([]int32, len(targets))
			for i, q := range targets {
				succ[i] = int32(q)
				dag.InDeg[q]++
			}
			dag.Succ[p], dag.Weight[p] = succ, slices.Clone(counts)
		}
		ps.reset()
	}
	return dag
}
