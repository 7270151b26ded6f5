package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jsweep/internal/geom"
	"jsweep/internal/mesh"
	"jsweep/internal/meshgen"
)

func TestSCCHandcrafted(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 (one SCC), 2 -> 3 -> 4, 4 -> 3 (another), 5 alone.
	adj := [][]int32{{1}, {2}, {0, 3}, {4}, {3}, {}}
	comp, n := SCC(adj)
	if n != 3 {
		t.Fatalf("ncomp = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("cycle 0-1-2 split: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Errorf("cycle 3-4 split: %v", comp)
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Errorf("vertex 5 merged: %v", comp)
	}
	// Reverse-topological ids: cross-component edges go high -> low.
	for u := range adj {
		for _, v := range adj[u] {
			if comp[u] != comp[v] && comp[u] < comp[v] {
				t.Errorf("edge %d->%d violates reverse-topo ids (%d < %d)", u, v, comp[u], comp[v])
			}
		}
	}
	nt, maxSize := NontrivialSCCs(comp, n)
	if nt != 2 || maxSize != 3 {
		t.Errorf("nontrivial = %d maxSize = %d, want 2, 3", nt, maxSize)
	}
	cond := Condense(adj, comp, n)
	if !kahnAcyclic(cond) {
		t.Error("condensation not acyclic")
	}
}

// randomDigraph builds a digraph from a seed: n in [1, 14], edge density
// keyed off the seed. Small n keeps the brute-force oracles cheap.
func randomDigraph(seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(14)
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Intn(4) == 0 {
				adj[u] = append(adj[u], int32(v))
			}
		}
	}
	return adj
}

// reachability computes the transitive closure by DFS from every vertex.
func reachability(adj [][]int32) [][]bool {
	n := len(adj)
	reach := make([][]bool, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		stack := []int32{int32(s)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !reach[s][v] {
					reach[s][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return reach
}

func kahnAcyclic(adj [][]int32) bool {
	n := len(adj)
	indeg := make([]int32, n)
	for _, succ := range adj {
		for _, v := range succ {
			indeg[v]++
		}
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	seen := 0
	for head := 0; head < len(queue); head++ {
		seen++
		for _, v := range adj[queue[head]] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return seen == n
}

// Property: SCC matches brute-force mutual reachability, and its ids are
// in reverse topological order.
func TestSCCMatchesReachability(t *testing.T) {
	f := func(seed int64) bool {
		adj := randomDigraph(seed)
		comp, n := SCC(adj)
		if n < 1 && len(adj) > 0 {
			return false
		}
		reach := reachability(adj)
		for u := range adj {
			for v := range adj {
				same := comp[u] == comp[v]
				mutual := u == v || (reach[u][v] && reach[v][u])
				if same != mutual {
					return false
				}
			}
		}
		for u := range adj {
			for _, v := range adj[u] {
				if comp[u] != comp[v] && comp[u] < comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: removing the selected feedback arcs always yields an acyclic
// graph, every arc closes a cycle (its head reaches its tail), and the
// selection is deterministic across runs.
func TestFeedbackArcsProperty(t *testing.T) {
	f := func(seed int64) bool {
		adj := randomDigraph(seed)
		arcs := FeedbackArcs(adj)
		if again := FeedbackArcs(adj); !reflect.DeepEqual(arcs, again) {
			return false
		}
		drop := make(map[int64]int, len(arcs))
		for _, a := range arcs {
			drop[int64(a[0])<<32|int64(a[1])]++
		}
		pruned := make([][]int32, len(adj))
		for u := range adj {
			for _, v := range adj[u] {
				if k := int64(u)<<32 | int64(v); drop[k] > 0 {
					drop[k]--
					continue
				}
				pruned[u] = append(pruned[u], v)
			}
		}
		if !kahnAcyclic(pruned) {
			return false
		}
		reach := reachability(adj)
		for _, a := range arcs {
			u, v := a[0], a[1]
			if u != v && !reach[v][u] {
				return false // arc not on any cycle
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// s2Dirs are representative S2 level-symmetric directions (both z signs):
// the twisted ring is cyclic for all of them.
var s2Dirs = []geom.Vec3{
	{X: 0.577350, Y: 0.577350, Z: 0.577350},
	{X: -0.577350, Y: 0.577350, Z: 0.577350},
	{X: 0.577350, Y: -0.577350, Z: -0.577350},
	{X: -0.577350, Y: -0.577350, Z: -0.577350},
}

func TestFeedbackEdgesOnCyclicMesh(t *testing.T) {
	m, err := meshgen.CyclicRing(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range s2Dirs {
		comp, n := CellSCC(m, omega)
		nt, maxSize := NontrivialSCCs(comp, n)
		if nt == 0 || maxSize <= 1 {
			t.Fatalf("Ω=%v: expected a nontrivial cell SCC (got %d comps, max %d)", omega, n, maxSize)
		}
		lagged := FeedbackEdges(m, omega)
		if len(lagged) == 0 {
			t.Fatalf("Ω=%v: no feedback edges on a cyclic mesh", omega)
		}
		if again := FeedbackEdges(m, omega); !reflect.DeepEqual(lagged, again) {
			t.Fatalf("Ω=%v: feedback selection not deterministic", omega)
		}
		// Every lagged edge must be a real downwind dependency inside an SCC.
		for _, e := range lagged {
			if comp[e.From] != comp[e.To] {
				t.Fatalf("Ω=%v: lagged edge %d->%d crosses SCCs", omega, e.From, e.To)
			}
			f := m.Face(e.From, int(e.SrcFace))
			if f.Neighbor != e.To || omega.Dot(f.Normal) <= upwindEps {
				t.Fatalf("Ω=%v: lagged edge %d->%d is not a downwind face", omega, e.From, e.To)
			}
			if m.Face(e.To, int(e.DstFace)).Neighbor != e.From {
				t.Fatalf("Ω=%v: lagged edge %d->%d has wrong receiving face", omega, e.From, e.To)
			}
		}
		// The erroring wrappers must refuse the cyclic mesh...
		if _, err := GlobalTopoOrder(m, omega); err == nil {
			t.Fatalf("Ω=%v: GlobalTopoOrder accepted a cyclic mesh", omega)
		}
		if _, err := CellLevels(m, omega); err == nil {
			t.Fatalf("Ω=%v: CellLevels accepted a cyclic mesh", omega)
		}
		// ...while the lagged variants deliver a complete, valid order.
		order, lagged2 := GlobalTopoOrderLagged(m, omega)
		if len(order) != m.NumCells() {
			t.Fatalf("Ω=%v: lagged order covers %d of %d cells", omega, len(order), m.NumCells())
		}
		if !reflect.DeepEqual(lagged, lagged2) {
			t.Fatalf("Ω=%v: FeedbackEdges and GlobalTopoOrderLagged disagree", omega)
		}
		isLagged := map[int64]bool{}
		for _, e := range lagged {
			isLagged[int64(e.From)<<3|int64(e.SrcFace)] = true
		}
		pos := make([]int, m.NumCells())
		for i, c := range order {
			pos[c] = i
		}
		for c := 0; c < m.NumCells(); c++ {
			for f := 0; f < m.NumFaces(mesh.CellID(c)); f++ {
				face := m.Face(mesh.CellID(c), f)
				if face.Neighbor < 0 || omega.Dot(face.Normal) <= upwindEps {
					continue
				}
				if isLagged[int64(c)<<3|int64(f)] {
					continue
				}
				if pos[face.Neighbor] <= pos[c] {
					t.Fatalf("Ω=%v: non-lagged dependency %d->%d violated by lagged order", omega, c, face.Neighbor)
				}
			}
		}
		levels, _ := CellLevelsLagged(m, omega)
		for c, l := range levels {
			if l < 0 {
				t.Fatalf("Ω=%v: negative level for cell %d", omega, c)
			}
		}
	}
}

func TestBuildPatchGraphLaggedConsistency(t *testing.T) {
	m, err := meshgen.CyclicStack(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := meshgen.AzimuthalBlocks(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	omega := s2Dirs[0]
	lagged := FeedbackEdges(m, omega)
	if len(lagged) == 0 {
		t.Fatal("expected lagged edges")
	}
	graphs := BuildAllPatchGraphsLagged(d, omega, 0, lagged)
	var indegSum, edges, lagIns, lagOuts int
	for _, g := range graphs {
		for _, x := range g.InDegree {
			indegSum += int(x)
		}
		l, r := g.NumEdges()
		edges += l + r
		lagIns += len(g.LagIn)
		lagOuts += len(g.LagOut)
	}
	if indegSum != edges {
		t.Errorf("indegree sum %d != edge count %d", indegSum, edges)
	}
	if lagIns != len(lagged) || lagOuts != len(lagged) {
		t.Errorf("LagIn/LagOut = %d/%d, want %d each", lagIns, lagOuts, len(lagged))
	}
	// Every lag entry must reference a valid slot, and the slots must be
	// covered exactly once on each side.
	seenIn := make([]bool, len(lagged))
	seenOut := make([]bool, len(lagged))
	for _, g := range graphs {
		for _, li := range g.LagIn {
			if seenIn[li.Idx] {
				t.Fatalf("lag slot %d consumed twice", li.Idx)
			}
			seenIn[li.Idx] = true
			if g.Cells[li.V] != lagged[li.Idx].To || li.Face != lagged[li.Idx].DstFace {
				t.Fatalf("LagIn slot %d mismatched", li.Idx)
			}
		}
		for _, lo := range g.LagOut {
			if seenOut[lo.Idx] {
				t.Fatalf("lag slot %d produced twice", lo.Idx)
			}
			seenOut[lo.Idx] = true
			if g.Cells[lo.V] != lagged[lo.Idx].From || lo.SrcFace != lagged[lo.Idx].SrcFace {
				t.Fatalf("LagOut slot %d mismatched", lo.Idx)
			}
		}
	}
	// On an acyclic mesh the lagged builder must reproduce the plain one
	// bit for bit.
	_, da := structured(t, 4)
	for p := 0; p < da.NumPatches(); p++ {
		plain := BuildPatchGraph(da, mesh.PatchID(p), omegaPPP, 0)
		laggedG := BuildPatchGraphLagged(da, mesh.PatchID(p), omegaPPP, 0, nil)
		if !reflect.DeepEqual(plain, laggedG) {
			t.Fatalf("patch %d: lagged build differs on acyclic mesh", p)
		}
	}
}

func TestPatchDAGSCCOnRing(t *testing.T) {
	m, err := meshgen.CyclicRing(12)
	if err != nil {
		t.Fatal(err)
	}
	d, err := meshgen.AzimuthalBlocks(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	dag := BuildPatchDAG(d, s2Dirs[0])
	if dag.IsAcyclic() {
		t.Fatal("ring patch digraph should be cyclic")
	}
	comp, n := dag.SCC()
	nt, maxSize := NontrivialSCCs(comp, n)
	if nt == 0 || maxSize <= 1 {
		t.Errorf("expected a nontrivial patch SCC, got %d comps (max size %d)", n, maxSize)
	}
	// Acyclic decomposition: one component per patch.
	_, ds := structured(t, 4)
	sdag := BuildPatchDAG(ds, omegaPPP)
	if _, n := sdag.SCC(); n != sdag.N {
		t.Errorf("acyclic patch DAG has %d comps, want %d", n, sdag.N)
	}
}

// The table-built adjacency's CSR-backed lists must be element for element what
// per-cell appends produce, on an acyclic grid and on a cyclic ring, and
// appending to one list must not reach into its neighbour's.
func TestCellAdjacencyMatchesAppendBuild(t *testing.T) {
	grid, err := mesh.NewStructured3D(5, 4, 3, geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := meshgen.CyclicRing(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []mesh.Mesh{grid, ring} {
		for _, omega := range s2Dirs {
			n := m.NumCells()
			wantAdj := make([][]int32, n)
			wantFace := make([][]int8, n)
			for c := 0; c < n; c++ {
				for i := 0; i < m.NumFaces(mesh.CellID(c)); i++ {
					f := m.Face(mesh.CellID(c), i)
					if f.Neighbor >= 0 && omega.Dot(f.Normal) > upwindEps {
						wantAdj[c] = append(wantAdj[c], int32(f.Neighbor))
						wantFace[c] = append(wantFace[c], int8(i))
					}
				}
			}
			c := NewConnectivity(m)
			adj, face := c.adjacency(c.Signature(omega))
			for c := 0; c < n; c++ {
				if !slicesEqual(adj[c], wantAdj[c]) || !slicesEqual(face[c], wantFace[c]) {
					t.Fatalf("Ω=%v cell %d: adj %v face %v, want %v %v", omega, c, adj[c], face[c], wantAdj[c], wantFace[c])
				}
				if cap(adj[c]) != len(adj[c]) || cap(face[c]) != len(face[c]) {
					t.Fatalf("Ω=%v cell %d: list capacity runs into the next cell's entries", omega, c)
				}
			}
		}
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FeedbackEdges allocates a fixed handful of arrays, not lists per cell
// (it used to make ~2 objects per cell: 3 M per solver set-up on
// Kobayashi-32 S4).
func TestFeedbackEdgesAllocCeiling(t *testing.T) {
	m, err := mesh.NewStructured3D(16, 16, 16, geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	omega := s2Dirs[0]
	allocs := testing.AllocsPerRun(5, func() {
		if lagged := FeedbackEdges(m, omega); len(lagged) != 0 {
			t.Fatalf("acyclic grid has %d feedback edges", len(lagged))
		}
	})
	// 6 for the face table, 1 for the signature, 5 for the adjacency,
	// 1 + O(log depth) for the DFS.
	if allocs > 32 {
		t.Errorf("FeedbackEdges on %d cells: %.0f allocations, want <= 32", m.NumCells(), allocs)
	}
}
