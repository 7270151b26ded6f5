package graph

import (
	"jsweep/internal/geom"
	"jsweep/internal/mesh"
)

// Cyclic sweep dependencies (Vermaak, Ragusa & Morel, arXiv:2004.01824):
// unstructured and decomposed meshes routinely produce cells whose sweep
// graph contains strongly connected components — non-convex or twisted cell
// configurations where flux flows "around a loop" for some directions. The
// standard remedy is to detect the SCCs, break every cycle by *lagging* the
// angular flux on a deterministic set of feedback edges (the downwind cell
// reads the previous source-iteration's flux instead of waiting), and let
// the outer source iteration converge the lagged values. This file holds
// the graph side of that machinery: Tarjan SCC detection, feedback-edge
// selection, and cycle-tolerant topological orders.

// SCC computes the strongly connected components of a digraph given as
// adjacency lists, using an iterative Tarjan traversal. It returns a dense
// component id per vertex and the component count. Component ids are
// assigned in reverse topological order of the condensation: every edge
// u->v with comp[u] != comp[v] satisfies comp[u] > comp[v]. The result is
// deterministic for a given adjacency (vertices are rooted in ascending
// order, successors visited in list order).
func SCC(adj [][]int32) (comp []int32, ncomp int) {
	n := len(adj)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n) // 0 = unvisited, else discovery index + 1
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, n)
	type frame struct {
		v  int32
		ei int
	}
	var frames []frame
	var next int32
	for s := 0; s < n; s++ {
		if index[s] != 0 {
			continue
		}
		frames = append(frames[:0], frame{v: int32(s)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei == 0 {
				next++
				index[v] = next
				low[v] = next
				stack = append(stack, v)
				onStack[v] = true
			}
			descended := false
			for f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == 0 {
					frames = append(frames, frame{v: w})
					descended = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(ncomp)
					if w == v {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				u := frames[len(frames)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	return comp, ncomp
}

// Condense builds the condensation of a digraph from an SCC labelling:
// vertex set = components, edge c1->c2 when some u->v has comp[u] = c1,
// comp[v] = c2, c1 != c2. Adjacency lists are sorted and deduplicated. The
// condensation of any digraph is acyclic.
func Condense(adj [][]int32, comp []int32, ncomp int) [][]int32 {
	out := make([][]int32, ncomp)
	seen := make(map[int64]struct{})
	for u := range adj {
		cu := comp[u]
		for _, v := range adj[u] {
			cv := comp[v]
			if cu == cv {
				continue
			}
			k := int64(cu)<<32 | int64(uint32(cv))
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out[cu] = append(out[cu], cv)
		}
	}
	for c := range out {
		insertionSort32(out[c])
	}
	return out
}

func insertionSort32(a []int32) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// SCCSizes returns, per component, its vertex count.
func SCCSizes(comp []int32, ncomp int) []int32 {
	sizes := make([]int32, ncomp)
	for _, c := range comp {
		sizes[c]++
	}
	return sizes
}

// NontrivialSCCs counts components with more than one vertex (each holds at
// least one cycle) and reports the largest component size.
func NontrivialSCCs(comp []int32, ncomp int) (count int, maxSize int) {
	for _, sz := range SCCSizes(comp, ncomp) {
		if sz > 1 {
			count++
		}
		if int(sz) > maxSize {
			maxSize = int(sz)
		}
	}
	return count, maxSize
}

// FeedbackArcs returns a deterministic feedback-arc set of a digraph: the
// back edges of a DFS rooted at vertices in ascending order with successors
// visited in list order. Removing the returned arcs always leaves an
// acyclic graph (a digraph is acyclic iff a DFS finds no back edge), and
// every returned arc lies on a cycle, so arcs are only spent where a cycle
// actually exists. Self-loops are returned as arcs too.
func FeedbackArcs(adj [][]int32) [][2]int32 {
	n := len(adj)
	// 0 = unvisited, 1 = on the DFS path, 2 = finished.
	state := make([]int8, n)
	type frame struct {
		v  int32
		ei int
	}
	var frames []frame
	var arcs [][2]int32
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		state[s] = 1
		frames = append(frames[:0], frame{v: int32(s)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			descended := false
			for f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				switch state[w] {
				case 0:
					state[w] = 1
					frames = append(frames, frame{v: w})
					descended = true
				case 1:
					arcs = append(arcs, [2]int32{v, w})
				}
				if descended {
					break
				}
			}
			if descended {
				continue
			}
			state[v] = 2
			frames = frames[:len(frames)-1]
		}
	}
	return arcs
}

// CellEdge is one cell-level sweep dependency: flux leaves From through its
// face SrcFace and enters To through its face DstFace.
type CellEdge struct {
	From, To mesh.CellID
	SrcFace  int8
	DstFace  int8
}

// lagKey packs a (cell, face) pair into a map key. Face counts are at most
// 6, so three bits suffice.
func lagKey(c mesh.CellID, face int8) int64 { return int64(c)<<3 | int64(face) }

// CellSCC computes the strongly connected components of the cell-level
// sweep graph for direction omega. An acyclic sweep graph has exactly one
// component per cell.
func CellSCC(m mesh.Mesh, omega geom.Vec3) (comp []int32, ncomp int) {
	c := NewConnectivity(m)
	return c.CellSCC(c.Signature(omega))
}

// FeedbackEdges selects the deterministic set of cell-level dependency
// edges to lag for direction omega (see Connectivity.FeedbackEdges).
func FeedbackEdges(m mesh.Mesh, omega geom.Vec3) []CellEdge {
	c := NewConnectivity(m)
	return c.FeedbackEdges(c.Signature(omega))
}

// laggedInSet keys lagged edges by their receiving (cell, face); laggedOutSet
// by their sending (cell, face). Values are the edge's index in the lagged
// slice — the slot id of the old/new flux stores.
func laggedSets(lagged []CellEdge) (in, out map[int64]int32) {
	if len(lagged) == 0 {
		return nil, nil
	}
	in = make(map[int64]int32, len(lagged))
	out = make(map[int64]int32, len(lagged))
	for i, e := range lagged {
		in[lagKey(e.To, e.DstFace)] = int32(i)
		out[lagKey(e.From, e.SrcFace)] = int32(i)
	}
	return in, out
}

// laggedKahn is the shared cycle-tolerant Kahn walk: it lags the feedback
// edges, then produces both the FIFO (wavefront-like, deterministic)
// topological order and the BFS wavefront level of every cell.
func laggedKahn(m mesh.Mesh, omega geom.Vec3) ([]mesh.CellID, []int32, []CellEdge) {
	c := NewConnectivity(m)
	sig := c.Signature(omega)
	lagged := c.FeedbackEdges(sig)
	_, lagOut := laggedSets(lagged)
	n := c.NumCells()
	indeg := make([]int32, n)
	for cell := 0; cell < n; cell++ {
		for s := c.start[cell]; s < c.start[cell+1]; s++ {
			if sig[s] == faceIn {
				indeg[cell]++
			}
		}
	}
	for _, e := range lagged {
		indeg[e.To]--
	}
	level := make([]int32, n)
	queue := make([]mesh.CellID, 0, n)
	for cell := 0; cell < n; cell++ {
		if indeg[cell] == 0 {
			queue = append(queue, mesh.CellID(cell))
		}
	}
	for head := 0; head < len(queue); head++ {
		cell := queue[head]
		lo := c.start[cell]
		for s := lo; s < c.start[cell+1]; s++ {
			if sig[s] != faceOut {
				continue
			}
			if lagOut != nil {
				if _, skip := lagOut[lagKey(cell, int8(s-lo))]; skip {
					continue
				}
			}
			nb := c.nbr[s]
			if l := level[cell] + 1; l > level[nb] {
				level[nb] = l
			}
			indeg[nb]--
			if indeg[nb] == 0 {
				queue = append(queue, nb)
			}
		}
	}
	if len(queue) != n {
		// Removing a DFS back-edge set always leaves an acyclic graph; a
		// shortfall here is a bug, not a property of the mesh.
		panic("graph: lagged sweep graph still cyclic (feedback selection bug)")
	}
	return queue, level, lagged
}

// GlobalTopoOrderLagged returns a dependency-respecting order of all mesh
// cells for direction omega together with the lagged feedback edges that
// had to be removed to make the sweep graph acyclic (empty on acyclic
// meshes, where the order is identical to GlobalTopoOrder's). A cell's
// position respects every non-lagged dependency; lagged dependencies are
// satisfied from the previous source iteration's flux instead.
func GlobalTopoOrderLagged(m mesh.Mesh, omega geom.Vec3) ([]mesh.CellID, []CellEdge) {
	order, _, lagged := laggedKahn(m, omega)
	return order, lagged
}

// CellLevelsLagged returns the BFS wavefront level of every cell for
// direction omega after lagging the feedback edges, plus the lagged edges
// themselves (empty, with levels identical to CellLevels, on acyclic
// meshes).
func CellLevelsLagged(m mesh.Mesh, omega geom.Vec3) ([]int32, []CellEdge) {
	_, level, lagged := laggedKahn(m, omega)
	return level, lagged
}

// SCC computes the strongly connected components of the patch digraph.
// Patch-level cycles arise both from cyclic cell graphs and from the
// zig-zag projection of acyclic ones (paper Fig. 4); the runtime handles
// them through partial computation, so this is an analysis/reporting tool.
func (dag *PatchDAG) SCC() (comp []int32, ncomp int) { return SCC(dag.Succ) }
