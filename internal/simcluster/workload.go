package simcluster

import (
	"fmt"
	"math"

	"jsweep/internal/geom"
	"jsweep/internal/graph"
	"jsweep/internal/mesh"
	"jsweep/internal/partition"
)

// octantSigns lists the 8 sweep octant sign patterns (bit0 = −x, bit1 =
// −y, bit2 = −z), matching quadrature.Direction.Octant.
var octantSigns = [8][3]int{
	{1, 1, 1}, {-1, 1, 1}, {1, -1, 1}, {-1, -1, 1},
	{1, 1, -1}, {-1, 1, -1}, {1, -1, -1}, {-1, -1, -1},
}

// StructuredWorkload builds the simulated task system of a structured
// sweep: a bx×by×bz lattice of patches with cellsPerPatch cells each, the
// 8 octant lattice DAGs, and SFC-ordered contiguous placement on procs.
// Edge weights are the patch interface face counts.
func StructuredWorkload(bx, by, bz int, cellsPerPatch int64, procs, angles, groups int) (*Workload, error) {
	if bx < 1 || by < 1 || bz < 1 || cellsPerPatch < 1 {
		return nil, fmt.Errorf("simcluster: bad structured workload %dx%dx%d × %d cells", bx, by, bz, cellsPerPatch)
	}
	np := bx * by * bz
	if procs < 1 {
		procs = 1
	}
	if procs > np {
		procs = np
	}
	side := math.Cbrt(float64(cellsPerPatch))
	faces := int32(math.Max(1, math.Round(side*side)))
	w := &Workload{
		PatchCells:        make([]int64, np),
		Owner:             make([]int, np),
		Octants:           make([]*graph.PatchDAG, 8),
		AngleOctant:       make([]int, angles),
		FacesPerEdgeScale: 1,
		Groups:            groups,
		Procs:             procs,
	}
	for p := range w.PatchCells {
		w.PatchCells[p] = cellsPerPatch
	}
	id := func(i, j, k int) int32 { return int32(i + bx*(j+by*k)) }
	for o := 0; o < 8; o++ {
		s := octantSigns[o]
		dag := &graph.PatchDAG{
			N:      np,
			Succ:   make([][]int32, np),
			Weight: make([][]int32, np),
			InDeg:  make([]int32, np),
		}
		add := func(from, to int32) {
			dag.Succ[from] = append(dag.Succ[from], to)
			dag.Weight[from] = append(dag.Weight[from], faces)
			dag.InDeg[to]++
		}
		for k := 0; k < bz; k++ {
			for j := 0; j < by; j++ {
				for i := 0; i < bx; i++ {
					from := id(i, j, k)
					if ni := i + s[0]; ni >= 0 && ni < bx {
						add(from, id(ni, j, k))
					}
					if nj := j + s[1]; nj >= 0 && nj < by {
						add(from, id(i, nj, k))
					}
					if nk := k + s[2]; nk >= 0 && nk < bz {
						add(from, id(i, j, nk))
					}
				}
			}
		}
		w.Octants[o] = dag
	}
	for a := 0; a < angles; a++ {
		w.AngleOctant[a] = a % 8
	}
	// SFC placement: contiguous runs of the Morton order per rank.
	order := partition.OrderBlocks(partition.Morton, bx, by, bz)
	for r, blockID := range order {
		w.Owner[blockID] = r * procs / np
	}
	return w, nil
}

// UnstructuredWorkload builds the simulated task system of an unstructured
// sweep from a patch-granular coarse mesh: every coarse cell stands for
// one patch of cellsPerPatch real cells (DESIGN.md: large unstructured
// meshes are synthesized at patch granularity). Per-octant DAGs follow the
// octant diagonal directions and are acyclified (back edges from zig-zag
// decompositions dropped; see AcyclifyDAG).
func UnstructuredWorkload(m mesh.Mesh, cellsPerPatch int64, procs, angles, groups int) (*Workload, error) {
	np := m.NumCells()
	if np == 0 {
		return nil, fmt.Errorf("simcluster: empty coarse mesh")
	}
	if procs < 1 {
		procs = 1
	}
	if procs > np {
		procs = np
	}
	// Trivial decomposition: one coarse cell per patch.
	assign := make([]mesh.PatchID, np)
	for c := range assign {
		assign[c] = mesh.PatchID(c)
	}
	d, err := mesh.NewDecomposition(m, assign, np)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		PatchCells:  make([]int64, np),
		Owner:       make([]int, np),
		Octants:     make([]*graph.PatchDAG, 8),
		AngleOctant: make([]int, angles),
		// A patch of n cells has ≈ n^(2/3) boundary faces per side; a
		// coarse edge weight counts coarse faces (≈1), so scale.
		FacesPerEdgeScale: math.Max(1, math.Pow(float64(cellsPerPatch), 2.0/3.0)/4),
		Groups:            groups,
		Procs:             procs,
	}
	for p := range w.PatchCells {
		w.PatchCells[p] = cellsPerPatch
	}
	inv := 1 / math.Sqrt(3)
	conn := graph.NewConnectivity(d.Mesh)
	for o := 0; o < 8; o++ {
		s := octantSigns[o]
		omega := geom.Vec3{X: float64(s[0]) * inv, Y: float64(s[1]) * inv, Z: float64(s[2]) * inv}
		dag := conn.PatchDAG(d, conn.Signature(omega))
		AcyclifyDAG(dag)
		w.Octants[o] = dag
	}
	for a := 0; a < angles; a++ {
		w.AngleOctant[a] = a % 8
	}
	// Spatially contiguous placement via RCB over the coarse mesh.
	if procs == 1 {
		return w, nil
	}
	pd, err := partition.ByCount(m, procs, partition.RCB)
	if err != nil {
		return nil, err
	}
	for c := 0; c < np; c++ {
		w.Owner[c] = int(pd.CellPatch[c])
	}
	return w, nil
}

// AcyclifyDAG removes back edges (edges closing a cycle) from a patch DAG
// in place and returns how many were dropped. Patch-level cycles appear
// when irregular decompositions zig-zag against the sweep direction
// (paper Fig. 4); the real runtime resolves them by partial computation,
// which at patch granularity is equivalent to ignoring the short back
// dependency. Uses an iterative DFS with tricolor marking.
func AcyclifyDAG(dag *graph.PatchDAG) int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, dag.N)
	dropped := 0
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for start := 0; start < dag.N; start++ {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{node: int32(start)})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succ := dag.Succ[f.node]
			advanced := false
			for f.next < len(succ) {
				q := succ[f.next]
				if color[q] == gray {
					// Back edge: drop it.
					w := dag.Weight[f.node]
					succ[f.next] = succ[len(succ)-1]
					w[f.next] = w[len(w)-1]
					dag.Succ[f.node] = succ[:len(succ)-1]
					dag.Weight[f.node] = w[:len(w)-1]
					succ = dag.Succ[f.node]
					dag.InDeg[q]--
					dropped++
					continue
				}
				f.next++
				if color[q] == white {
					color[q] = gray
					stack = append(stack, frame{node: q})
					advanced = true
					break
				}
			}
			if !advanced && f.next >= len(dag.Succ[f.node]) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return dropped
}
