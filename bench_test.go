// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI) at Quick fidelity, plus micro-benchmarks of the hot building
// blocks. Run the full-size experiments with cmd/jsweep-bench
// (-fidelity standard|paper); EXPERIMENTS.md records paper-vs-measured.
package jsweep_test

import (
	"io"
	"testing"

	"jsweep"
	"jsweep/internal/bench"
	"jsweep/internal/core"
	"jsweep/internal/graph"
	"jsweep/internal/mesh"
	"jsweep/internal/meshgen"
	"jsweep/internal/partition"
	"jsweep/internal/priority"
	"jsweep/internal/quadrature"
	"jsweep/internal/registry"
	"jsweep/internal/sweep"
	"jsweep/internal/transport"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(bench.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig09aClusterGrainStructured(b *testing.B)  { benchExperiment(b, "fig9a") }
func BenchmarkFig09bPriorityStructured(b *testing.B)      { benchExperiment(b, "fig9b") }
func BenchmarkFig12aKobayashi400Strong(b *testing.B)      { benchExperiment(b, "fig12a") }
func BenchmarkFig12bKobayashi800Strong(b *testing.B)      { benchExperiment(b, "fig12b") }
func BenchmarkFig13aHyperParamsUnstructured(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13bPriorityUnstructured(b *testing.B)    { benchExperiment(b, "fig13b") }
func BenchmarkFig14aBallSmallStrong(b *testing.B)         { benchExperiment(b, "fig14a") }
func BenchmarkFig14bBallLargeStrong(b *testing.B)         { benchExperiment(b, "fig14b") }
func BenchmarkFig15WeakScaling(b *testing.B)              { benchExperiment(b, "fig15") }
func BenchmarkFig16Breakdown(b *testing.B)                { benchExperiment(b, "fig16") }
func BenchmarkFig17aVsJASMIN(b *testing.B)                { benchExperiment(b, "fig17a") }
func BenchmarkFig17bVsJAUMIN(b *testing.B)                { benchExperiment(b, "fig17b") }
func BenchmarkTableIComparison(b *testing.B)              { benchExperiment(b, "tab1") }
func BenchmarkCoarsenedGraphAblation(b *testing.B)        { benchExperiment(b, "coarse") }
func BenchmarkRealRuntimeSweep(b *testing.B)              { benchExperiment(b, "real") }
func BenchmarkIterationSessionReuse(b *testing.B)         { benchExperiment(b, "iter") }

// Micro-benchmarks of the building blocks.

func kobaFixture(b *testing.B, n int) (*jsweep.Problem, *jsweep.Decomposition) {
	b.Helper()
	prob, m, err := jsweep.BuildKobayashi(jsweep.KobayashiSpec{N: n, SnOrder: 2, Scheme: jsweep.Diamond})
	if err != nil {
		b.Fatal(err)
	}
	d, err := m.BlockDecompose(n/2, n/2, n/2)
	if err != nil {
		b.Fatal(err)
	}
	return prob, d
}

func flatQ(prob *jsweep.Problem) [][]float64 {
	q := prob.NewFlux()
	zero := prob.NewFlux()
	scratch := make([]float64, prob.Groups)
	for c := 0; c < prob.M.NumCells(); c++ {
		prob.EmissionDensity(mesh.CellID(c), zero, scratch)
		for g := 0; g < prob.Groups; g++ {
			q[g][c] = scratch[g]
		}
	}
	return q
}

// BenchmarkKernelSolveCell measures the per-cell transport kernel on one
// cell whose data stays in L1; the SweepOrder variants below measure what
// a sweep pays.
func BenchmarkKernelSolveCell(b *testing.B) {
	prob, _ := kobaFixture(b, 8)
	omega := prob.Quad.Directions[0].Omega
	qCell := []float64{1.0}
	psiIn := make([]float64, 6)
	psiOut := make([]float64, 6)
	psiBar := make([]float64, 1)
	c := mesh.CellID(prob.M.NumCells() / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.SolveCell(c, omega, qCell, psiIn, psiOut, psiBar)
	}
}

// benchKernelSweepOrder solves every cell of the mesh once per direction,
// the way a sweep visits them: by the time the next direction returns to a
// cell, its geometry has left the inner cache levels. Reports ns per
// (cell, angle).
func benchKernelSweepOrder(b *testing.B, prob *jsweep.Problem) {
	G, mf := prob.Groups, prob.MaxFaces()
	qCell := make([]float64, G)
	for g := range qCell {
		qCell[g] = 1
	}
	psiIn, psiOut, psiBar := make([]float64, mf*G), make([]float64, mf*G), make([]float64, G)
	cells := prob.M.NumCells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range prob.Quad.Directions {
			for c := 0; c < cells; c++ {
				prob.SolveCell(mesh.CellID(c), d.Omega, qCell, psiIn, psiOut, psiBar)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells*prob.Quad.NumAngles()), "ns/cell-angle")
}

// BenchmarkKernelSweepOrderKobayashi32Diamond: 32 768 hexes × 24 angles.
func BenchmarkKernelSweepOrderKobayashi32Diamond(b *testing.B) {
	prob, _, err := jsweep.BuildKobayashi(jsweep.KobayashiSpec{N: 32, SnOrder: 4, Scheme: jsweep.Diamond})
	if err != nil {
		b.Fatal(err)
	}
	benchKernelSweepOrder(b, prob)
}

// BenchmarkKernelSweepOrderBall20kStep: 22 170 tets × 24 angles.
func BenchmarkKernelSweepOrderBall20kStep(b *testing.B) {
	m, err := meshgen.BallWithCells(20000, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	quad, err := quadrature.New(4)
	if err != nil {
		b.Fatal(err)
	}
	prob := registry.UniformProblem(m, quad, 1)
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	benchKernelSweepOrder(b, prob)
}

// benchProgramCycle runs whole sweeps of the fine patch-programs on the
// sequential engine — kernel plus everything Listing 1 does around it
// (queues, counters, stream encode/decode, Alg. 1 cycles), no threads, no
// transport. Reports ns per (cell, angle): minus the SweepOrder kernel
// benchmark of the same mesh above, that is the program overhead.
func benchProgramCycle(b *testing.B, family string, p registry.Params) {
	prob, d, err := registry.Build(family, p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sweep.NewSolver(prob, d, sweep.Options{Sequential: true})
	if err != nil {
		b.Fatal(err)
	}
	q := flatQ(prob)
	sweepOnce := func() {
		phi, err := s.Sweep(q)
		if err != nil {
			b.Fatal(err)
		}
		s.RecycleFlux(phi)
	}
	sweepOnce() // allocate the program contexts, fill the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOnce()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*prob.M.NumCells()*prob.Quad.NumAngles()), "ns/cell-angle")
}

// BenchmarkProgramCycleKobayashi32: 32 768 hexes × 24 angles, 64 patches.
func BenchmarkProgramCycleKobayashi32(b *testing.B) {
	benchProgramCycle(b, "kobayashi", registry.Params{N: 32, SnOrder: 4})
}

// BenchmarkProgramCycleBall20k: 22 170 tets × 24 angles, patch 500.
func BenchmarkProgramCycleBall20k(b *testing.B) {
	benchProgramCycle(b, "ball", registry.Params{Cells: 20000, SnOrder: 4, Patch: 500})
}

// benchNewSolver times a cold solver set-up on 2 in-process ranks: the
// connectivity table, the patch graphs, feedback edges, patch DAGs and
// priorities of every face-sign signature group, and the patch-programs
// of the persistent session.
func benchNewSolver(b *testing.B, family string, p registry.Params) {
	prob, d, err := registry.Build(family, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sweep.NewSolver(prob, d, sweep.Options{Procs: 2, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSolverKobayashi32: 32 768 hexes × 24 angles in 8 signature
// groups, 64 patches.
func BenchmarkNewSolverKobayashi32(b *testing.B) {
	benchNewSolver(b, "kobayashi", registry.Params{N: 32, SnOrder: 4})
}

// BenchmarkNewSolverBall20k: 22 170 tets × 24 angles in 24 signature
// groups, patch 500.
func BenchmarkNewSolverBall20k(b *testing.B) {
	benchNewSolver(b, "ball", registry.Params{Cells: 20000, SnOrder: 4, Patch: 500})
}

// BenchmarkReferenceSweep measures the serial ground-truth executor.
func BenchmarkReferenceSweep(b *testing.B) {
	prob, _ := kobaFixture(b, 16)
	ref, err := sweep.NewReference(prob)
	if err != nil {
		b.Fatal(err)
	}
	q := flatQ(prob)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Sweep(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSweepSolver measures a full data-driven sweep on the threaded
// runtime.
func BenchmarkJSweepSolver(b *testing.B) {
	prob, d := kobaFixture(b, 16)
	q := flatQ(prob)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := jsweep.NewSolver(prob, d, jsweep.SolverOptions{Procs: 2, Workers: 2, Grain: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Sweep(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarseSweep measures the coarsened-graph fast path (§V-E).
func BenchmarkCoarseSweep(b *testing.B) {
	prob, d := kobaFixture(b, 16)
	q := flatQ(prob)
	s, err := jsweep.NewSolver(prob, d, jsweep.SolverOptions{Sequential: true, Grain: 64, UseCoarse: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Sweep(q); err != nil { // build CG
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sweep(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamCodec measures the wire pack/unpack path.
func BenchmarkStreamCodec(b *testing.B) {
	streams := make([]core.Stream, 16)
	for i := range streams {
		streams[i] = core.Stream{
			SrcPatch: 1, SrcTask: 2, TgtPatch: 3, TgtTask: 4,
			Payload: make([]byte, 512),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := core.EncodeStreams(nil, streams)
		if _, err := core.DecodeStreams(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionRCB measures unstructured partitioning.
func BenchmarkPartitionRCB(b *testing.B) {
	m, err := jsweep.Ball(10, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.ByCount(m, 16, partition.RCB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatchGraphBuild measures sweep-DAG construction.
func BenchmarkPatchGraphBuild(b *testing.B) {
	prob, d := kobaFixture(b, 16)
	omega := prob.Quad.Directions[0].Omega
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildAllPatchGraphs(d, omega, 0)
	}
}

// BenchmarkPatchPriorities measures the §V-D priority computations.
func BenchmarkPatchPriorities(b *testing.B) {
	prob, d := kobaFixture(b, 16)
	dag := graph.BuildPatchDAG(d, prob.Quad.Directions[0].Omega)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priority.PatchPriorities(priority.SLBD, dag)
	}
}

// BenchmarkSourceIteration measures a converging multi-sweep solve with
// scattering.
func BenchmarkSourceIteration(b *testing.B) {
	prob, _, err := jsweep.BuildKobayashi(jsweep.KobayashiSpec{N: 10, SnOrder: 2, Scattering: true, Scheme: jsweep.Diamond})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := sweep.NewReference(prob)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.SourceIterate(prob, ref, transport.IterConfig{Tolerance: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSourceIterationSolver measures a full data-driven source iteration
// (Kobayashi with scattering) under the given session-reuse mode.
func benchSourceIterationSolver(b *testing.B, mode jsweep.ReuseMode) {
	prob, m, err := jsweep.BuildKobayashi(jsweep.KobayashiSpec{N: 12, SnOrder: 2, Scattering: true, Scheme: jsweep.Diamond})
	if err != nil {
		b.Fatal(err)
	}
	d, err := m.BlockDecompose(3, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := jsweep.NewSolver(prob, d, jsweep.SolverOptions{
			Procs: 2, Workers: 2, Grain: 64, ReuseRuntime: mode,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transport.SourceIterate(prob, s, transport.IterConfig{Tolerance: 1e-6}); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkSourceIterationReuseOn / ...Off compare one persistent runtime
// session against rebuild-per-sweep over a full multi-sweep solve.
func BenchmarkSourceIterationReuseOn(b *testing.B)  { benchSourceIterationSolver(b, jsweep.ReuseOn) }
func BenchmarkSourceIterationReuseOff(b *testing.B) { benchSourceIterationSolver(b, jsweep.ReuseOff) }
