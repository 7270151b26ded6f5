package priority

import (
	"testing"

	"jsweep/internal/geom"
	"jsweep/internal/graph"
	"jsweep/internal/mesh"
)

func fixture(t *testing.T) (*mesh.Structured3D, *mesh.Decomposition, *graph.PatchDAG, []*graph.PatchGraph) {
	t.Helper()
	m, err := mesh.NewStructured3D(6, 6, 6, geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.BlockDecompose(2, 2, 2) // 3x3x3 = 27 patches
	if err != nil {
		t.Fatal(err)
	}
	omega := geom.Vec3{X: 0.6, Y: 0.48, Z: 0.64}
	dag := graph.BuildPatchDAG(d, omega)
	graphs := graph.BuildAllPatchGraphs(d, omega, 0)
	return m, d, dag, graphs
}

func TestStrategyString(t *testing.T) {
	if BFS.String() != "BFS" || LDCP.String() != "LDCP" || SLBD.String() != "SLBD" {
		t.Error("strategy names wrong")
	}
	if (Pair{Patch: SLBD, Vertex: BFS}).String() != "SLBD+BFS" {
		t.Error("pair notation wrong")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
	}{{"BFS", BFS}, {"ldcp", LDCP}, {"SLBD", SLBD}} {
		got, err := ParseStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestCombineAngleDominates(t *testing.T) {
	// Any patch priority difference must never outweigh an angle step.
	lo := Combine(AnglePriority(1), 1<<20)
	hi := Combine(AnglePriority(0), -(1 << 20))
	if hi <= lo {
		t.Errorf("angle 0 with worst patch prio (%d) must beat angle 1 with best (%d)", hi, lo)
	}
}

func TestBFSPatchPriorities(t *testing.T) {
	_, _, dag, _ := fixture(t)
	prio := PatchPriorities(BFS, dag)
	// The corner source patch (id 0, block (0,0,0)) must have the maximum
	// priority; the far corner (id 26) the minimum.
	if prio[0] != 0 {
		t.Errorf("source patch priority = %d, want 0", prio[0])
	}
	for p, pr := range prio {
		if pr > prio[0] {
			t.Errorf("patch %d priority %d exceeds the source's", p, pr)
		}
	}
	if prio[26] >= prio[0] {
		t.Error("far corner should have strictly lower BFS priority")
	}
}

func TestLDCPPatchPriorities(t *testing.T) {
	_, _, dag, _ := fixture(t)
	prio := PatchPriorities(LDCP, dag)
	// LDCP: the source corner has the longest downstream path (6 hops on a
	// 3x3x3 block lattice), sinks have 0.
	if prio[26] != 0 {
		t.Errorf("sink patch LDCP = %d, want 0", prio[26])
	}
	if prio[0] != 6 {
		t.Errorf("source patch LDCP = %d, want 6", prio[0])
	}
	// Monotone along edges: successor height < node height.
	for p := 0; p < dag.N; p++ {
		for _, q := range dag.Succ[p] {
			if prio[q] >= prio[p] {
				t.Fatalf("LDCP not decreasing along edge %d->%d", p, q)
			}
		}
	}
}

func TestSLBDPatchPriorities(t *testing.T) {
	_, _, dag, _ := fixture(t)
	prio := PatchPriorities(SLBD, dag)
	// SLBD: sink patches (distance 0 to sink) have the highest priority.
	if prio[26] != 0 {
		t.Errorf("sink patch SLBD = %d, want 0", prio[26])
	}
	if prio[0] != -6 {
		t.Errorf("source patch SLBD = %d, want -6", prio[0])
	}
}

func TestVertexPrioritiesBFS(t *testing.T) {
	_, _, _, graphs := fixture(t)
	g := graphs[0]
	prio := VertexPriorities(BFS, g)
	if len(prio) != g.NumVertices() {
		t.Fatal("length mismatch")
	}
	// BFS priority decreases along every local edge.
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, e := range g.LocalEdges(v) {
			if prio[e.To] >= prio[v] {
				t.Fatalf("BFS vertex priority not decreasing along %d->%d", v, e.To)
			}
		}
	}
}

func TestVertexPrioritiesLDCP(t *testing.T) {
	_, _, _, graphs := fixture(t)
	g := graphs[0]
	prio := VertexPriorities(LDCP, g)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, e := range g.LocalEdges(v) {
			if prio[e.To] >= prio[v] {
				t.Fatalf("LDCP vertex priority not decreasing along %d->%d", v, e.To)
			}
		}
	}
}

func TestVertexPrioritiesSLBD(t *testing.T) {
	_, _, _, graphs := fixture(t)
	// Patch 0 (corner block): its downwind faces cross into other patches,
	// so vertices with remote edges must have the top SLBD priority (0);
	// all others negative.
	g := graphs[0]
	prio := VertexPriorities(SLBD, g)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if len(g.RemoteEdges(v)) > 0 {
			if prio[v] != 0 {
				t.Errorf("boundary vertex %d SLBD = %d, want 0", v, prio[v])
			}
		} else if prio[v] >= 0 {
			t.Errorf("interior vertex %d SLBD = %d, want < 0", v, prio[v])
		}
	}
}

// All strategies must assign priorities to every patch even when the patch
// DAG has cycles (zig-zag decompositions). Build a cyclic 2-patch DAG by
// interleaving two columns of a 2D-ish mesh.
func TestPrioritiesOnCyclicPatchDAG(t *testing.T) {
	m, err := mesh.NewStructured3D(4, 2, 1, geom.Vec3{}, geom.Vec3{X: 4, Y: 2, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Zig-zag assignment: patch = (i+j) % 2 — guarantees cyclic patch deps
	// along +x.
	assign := make([]mesh.PatchID, m.NumCells())
	for c := 0; c < m.NumCells(); c++ {
		i, j, _ := m.Coords(mesh.CellID(c))
		assign[c] = mesh.PatchID((i + j) % 2)
	}
	d, err := mesh.NewDecomposition(m, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	dag := graph.BuildPatchDAG(d, geom.Vec3{X: 1, Y: 0, Z: 0})
	if dag.IsAcyclic() {
		t.Fatal("fixture should be cyclic")
	}
	for _, s := range []Strategy{BFS, LDCP, SLBD} {
		prio := PatchPriorities(s, dag)
		if len(prio) != 2 {
			t.Fatalf("%v: missing priorities", s)
		}
	}
}

func TestAnglePriorityOrdering(t *testing.T) {
	if AnglePriority(0) <= AnglePriority(1) {
		t.Error("angle 0 must outrank angle 1")
	}
}

// The CSR predecessor lists must reproduce, value for value, the SLBD
// distances a per-vertex append build gives, on every patch graph of the
// fixture.
func TestVertexBoundaryDistanceMatchesAppendBuild(t *testing.T) {
	_, _, _, graphs := fixture(t)
	for _, g := range graphs {
		n := g.NumVertices()
		const inf = int32(1) << 30
		want := make([]int32, n)
		var queue []int32
		pred := make([][]int32, n)
		for v := int32(0); v < int32(n); v++ {
			want[v] = inf
			if len(g.RemoteEdges(v)) > 0 {
				want[v] = 0
				queue = append(queue, v)
			}
			for _, e := range g.LocalEdges(v) {
				pred[e.To] = append(pred[e.To], v)
			}
		}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range pred[v] {
				if want[u] > want[v]+1 {
					want[u] = want[v] + 1
					queue = append(queue, u)
				}
			}
		}
		var maxSeen int32
		for _, d := range want {
			if d != inf && d > maxSeen {
				maxSeen = d
			}
		}
		got := VertexPriorities(SLBD, g)
		for v := range want {
			if want[v] == inf {
				want[v] = maxSeen + 1
			}
			if got[v] != -want[v] {
				t.Fatalf("patch %d vertex %d: SLBD priority %d, want %d", g.Patch, v, got[v], -want[v])
			}
		}
	}
}

// VertexPriorities allocates a fixed handful of arrays per call whatever
// the patch size (SLBD used to grow one predecessor list per vertex).
func TestVertexPrioritiesAllocCeiling(t *testing.T) {
	m, err := mesh.NewStructured3D(16, 16, 16, geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.BlockDecompose(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.BuildPatchGraph(d, 0, geom.Vec3{X: 0.6, Y: 0.48, Z: 0.64}, 0)
	for _, s := range []Strategy{BFS, LDCP, SLBD} {
		allocs := testing.AllocsPerRun(5, func() { VertexPriorities(s, g) })
		if allocs > 6 {
			t.Errorf("%v on %d vertices: %.0f allocations, want <= 6", s, g.NumVertices(), allocs)
		}
	}
}
