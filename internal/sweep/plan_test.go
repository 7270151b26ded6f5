package sweep

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"testing"

	"jsweep/internal/geom"
	"jsweep/internal/graph"
	"jsweep/internal/mesh"
	"jsweep/internal/meshgen"
	"jsweep/internal/priority"
	"jsweep/internal/quadrature"
	"jsweep/internal/registry"
	"jsweep/internal/transport"
)

// serialPlan is the per-angle plan build that buildPlan's signature groups
// replaced, kept as its oracle: every angle on its own, through the
// per-direction entry points (each tabulates the mesh afresh), in angle
// order on the caller's goroutine.
func serialPlan(d *mesh.Decomposition, dirs []quadrature.Direction, pair priority.Pair) *sweepPlan {
	na := len(dirs)
	pl := &sweepPlan{
		graphs:     make([][]*graph.PatchGraph, na),
		dags:       make([]*graph.PatchDAG, na),
		patchPrio:  make([][]int64, na),
		vertexPrio: make([][][]int32, na),
		lagged:     make([][]graph.CellEdge, na),
	}
	for a, dir := range dirs {
		omega := dir.Omega
		pl.lagged[a] = graph.FeedbackEdges(d.Mesh, omega)
		pl.laggedEdges += len(pl.lagged[a])
		if len(pl.lagged[a]) > 0 {
			comp, n := graph.CellSCC(d.Mesh, omega)
			nt, _ := graph.NontrivialSCCs(comp, n)
			pl.cellSCCs += nt
		}
		pl.graphs[a] = graph.BuildAllPatchGraphsLagged(d, omega, int32(a), pl.lagged[a])
		dag := graph.BuildPatchDAG(d, omega)
		if comp, n := dag.SCC(); n < dag.N {
			nt, _ := graph.NontrivialSCCs(comp, n)
			pl.patchSCCs += nt
		}
		pl.dags[a] = dag
		pl.patchPrio[a] = priority.PatchPriorities(pair.Patch, dag)
		pl.vertexPrio[a] = make([][]int32, len(pl.graphs[a]))
		for p, g := range pl.graphs[a] {
			pl.vertexPrio[a][p] = priority.VertexPriorities(pair.Vertex, g)
		}
	}
	return pl
}

// comparePlans reports every way got differs from the oracle want, naming
// the first differing angle, patch and field.
func comparePlans(t *testing.T, name string, got, want *sweepPlan) {
	t.Helper()
	if got.laggedEdges != want.laggedEdges || got.cellSCCs != want.cellSCCs || got.patchSCCs != want.patchSCCs {
		t.Errorf("%s: LaggedEdges/CellSCCs/PatchSCCs = %d/%d/%d, oracle %d/%d/%d", name,
			got.laggedEdges, got.cellSCCs, got.patchSCCs, want.laggedEdges, want.cellSCCs, want.patchSCCs)
	}
	for a := range want.graphs {
		if got.dags != nil && !reflect.DeepEqual(got.dags[a], want.dags[a]) {
			t.Errorf("%s angle %d: patch DAG differs from the oracle", name, a)
		}
		if got.lagged != nil && !reflect.DeepEqual(got.lagged[a], want.lagged[a]) {
			t.Errorf("%s angle %d: lagged edges %v, oracle %v", name, a, got.lagged[a], want.lagged[a])
		}
		if !reflect.DeepEqual(got.patchPrio[a], want.patchPrio[a]) {
			t.Errorf("%s angle %d: patch priorities %v, oracle %v", name, a, got.patchPrio[a], want.patchPrio[a])
		}
		for p := range want.graphs[a] {
			if !reflect.DeepEqual(got.vertexPrio[a][p], want.vertexPrio[a][p]) {
				t.Errorf("%s angle %d patch %d: vertex priorities differ from the oracle", name, a, p)
			}
			if diff := graphDiff(got.graphs[a][p], want.graphs[a][p]); diff != "" {
				t.Errorf("%s angle %d patch %d: %s", name, a, p, diff)
			}
		}
	}
}

// graphDiff names the first PatchGraph field in which g differs from want
// ("" when they are deep-equal).
func graphDiff(g, want *graph.PatchGraph) string {
	gv, wv := reflect.ValueOf(g).Elem(), reflect.ValueOf(want).Elem()
	for i := range wv.NumField() {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Sprintf("PatchGraph.%s differs from the oracle", wv.Type().Field(i).Name)
		}
	}
	return ""
}

type planTestCase struct {
	name string
	prob *transport.Problem
	d    *mesh.Decomposition
	// groups is the signature group count the case must produce (0: any).
	groups int
}

// planTestCases covers a structured mesh, an unstructured one, a cyclic
// one (with lagged feedback edges) and a structured one swept along
// directions with grazing faces.
func planTestCases(t *testing.T) []planTestCase {
	t.Helper()
	build := func(family string, p registry.Params) (*transport.Problem, *mesh.Decomposition) {
		prob, d, err := registry.Build(family, p)
		if err != nil {
			t.Fatal(err)
		}
		return prob, d
	}
	kobaProb, kobaD := build("kobayashi", registry.Params{N: 8, SnOrder: 4})
	ballProb, ballD := build("ball", registry.Params{Cells: 1000, SnOrder: 4, Patch: 100})

	ring, err := meshgen.CyclicRing(12) // a TwistedRing
	if err != nil {
		t.Fatal(err)
	}
	ringD, err := meshgen.AzimuthalBlocks(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := quadrature.New(4)
	if err != nil {
		t.Fatal(err)
	}
	ringProb := registry.UniformProblem(ring, s4, 1)

	grazeProb, grazeD := build("kobayashi", registry.Params{N: 8, SnOrder: 2})
	grazeProb.Quad = grazingQuadrature()
	return []planTestCase{
		{"kobayashi", kobaProb, kobaD, 8},
		{"ball", ballProb, ballD, 24},
		{"twisted-ring", ringProb, ringD, 0},
		// Two directions tilt out of the xy plane by less than
		// mesh.UpwindEps: their z faces are grazing, like the in-plane
		// direction's, so the three share one group.
		{"kobayashi-grazing", grazeProb, grazeD, 3},
	}
}

// grazingQuadrature holds directions with faces at |Ω·n| ≤ UpwindEps on a
// structured grid: in the xy plane, tilted by a sub-threshold z, and one
// generic direction.
func grazingQuadrature() *quadrature.Set {
	unit := func(x, y, z float64) geom.Vec3 {
		n := math.Sqrt(x*x + y*y + z*z)
		return geom.Vec3{X: x / n, Y: y / n, Z: z / n}
	}
	dirs := []geom.Vec3{
		unit(0.6, 0.8, 0),
		unit(0.6, 0.8, mesh.UpwindEps/2),
		unit(-0.6, 0.8, 0),
		unit(0.6, 0.8, -mesh.UpwindEps/4),
		unit(0.5, 0.6, 0.62),
	}
	q := &quadrature.Set{Order: 2}
	for _, o := range dirs {
		q.Directions = append(q.Directions, quadrature.Direction{Omega: o, Weight: 4 * math.Pi / float64(len(dirs))})
	}
	return q
}

// TestGroupedPlanMatchesSerialBuild: the plan built once per face-sign
// signature group, the groups in parallel, is deep-equal to the serial
// per-angle build — every PatchGraph field, the patch DAGs, the lagged
// sets, both priority levels and the cycle counts — on one P and on four.
func TestGroupedPlanMatchesSerialBuild(t *testing.T) {
	pair := priority.Pair{Patch: priority.SLBD, Vertex: priority.SLBD}
	for _, tc := range planTestCases(t) {
		want := serialPlan(tc.d, tc.prob.Quad.Directions, pair)
		if tc.name == "twisted-ring" && want.laggedEdges == 0 {
			t.Fatalf("%s: no direction needed lagging — the cyclic case tests nothing", tc.name)
		}
		for _, procs := range []int{1, 4} {
			prev := goruntime.GOMAXPROCS(procs)
			got := buildPlan(tc.d, tc.prob.Quad.Directions, pair)
			goruntime.GOMAXPROCS(prev)
			name := fmt.Sprintf("%s/GOMAXPROCS=%d", tc.name, procs)
			if tc.groups > 0 && got.groups != tc.groups {
				t.Errorf("%s: %d signature groups, want %d", name, got.groups, tc.groups)
			}
			comparePlans(t, name, got, want)
		}
	}
}

// TestPlanSharingContract: angles of one signature group share their
// graphs' slices and priority arrays, so nothing a solver does may write
// to them. After fine solves, a UseCoarse recording solve with the coarse
// solves after it, and ResetSolve, every angle's graphs and priorities
// still equal a fresh oracle build.
func TestPlanSharingContract(t *testing.T) {
	for _, tc := range planTestCases(t) {
		if tc.name == "kobayashi-grazing" {
			continue // built only, never swept
		}
		for _, opts := range []Options{
			{Procs: 2, Workers: 2, Grain: 4},
			{Procs: 2, Workers: 2, Grain: 4, UseCoarse: true},
		} {
			name := fmt.Sprintf("%s/coarse=%v", tc.name, opts.UseCoarse)
			s, err := NewSolver(tc.prob, tc.d, opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := transport.IterConfig{MaxIterations: 3, Tolerance: 1e-30}
			for range 2 {
				s.ResetSolve()
				if _, err := transport.SourceIterate(tc.prob, s, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if opts.UseCoarse && s.CoarseGraph() == nil {
				t.Fatalf("%s: the recording solve built no coarse graph", name)
			}
			// The solver keeps no DAGs or lagged lists; its graphs carry
			// the lagged edges as LagIn/LagOut.
			got := &sweepPlan{
				graphs: s.graphs, patchPrio: s.patchPrio, vertexPrio: s.vertexPrio,
				laggedEdges: s.laggedEdges, cellSCCs: s.cellSCCs, patchSCCs: s.patchSCCs,
			}
			comparePlans(t, name, got, serialPlan(tc.d, tc.prob.Quad.Directions, s.opts.Pair))
		}
	}
}
