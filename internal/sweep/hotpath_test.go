package sweep

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"jsweep/internal/core"
	"jsweep/internal/geom"
	"jsweep/internal/graph"
	"jsweep/internal/kobayashi"
	"jsweep/internal/mesh"
	"jsweep/internal/meshgen"
	"jsweep/internal/partition"
	"jsweep/internal/quadrature"
	"jsweep/internal/transport"
)

// Hot-path tests of the patch-program cycle: the programs driven by hand
// (Init/Input/Compute/Output, no engine, no runtime) over whole two-patch
// sweeps must allocate nothing once warm, and what they put on the wire
// must be what the staged encoder they replaced would have put there.

// hotCase is one two-patch problem.
type hotCase struct {
	name string
	prob *transport.Problem
	d    *mesh.Decomposition
}

// hotCases returns Kobayashi-8 and a 1 000-tet ball, each with 1 and 3
// energy groups, each cut into two patches, S2.
func hotCases(t *testing.T) []hotCase {
	t.Helper()
	var cases []hotCase
	for _, groups := range []int{1, 3} {
		prob, m, err := kobayashi.Build(kobayashi.Spec{N: 8, SnOrder: 2, Scheme: transport.Diamond})
		if err != nil {
			t.Fatal(err)
		}
		widenGroups(prob, groups)
		d, err := m.BlockDecompose(4, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, hotCase{fmt.Sprintf("koba8/G%d", groups), prob, d})

		ball, err := meshgen.BallWithCells(1000, 10)
		if err != nil {
			t.Fatal(err)
		}
		ball.SetMaterialFunc(func(geom.Vec3) int { return 0 })
		quad, err := quadrature.New(2)
		if err != nil {
			t.Fatal(err)
		}
		bprob := &transport.Problem{
			M:      ball,
			Mats:   []transport.Material{{Name: "ball", SigmaT: []float64{0.3}, Source: []float64{1}}},
			Quad:   quad,
			Groups: 1,
			Scheme: transport.Step,
		}
		widenGroups(bprob, groups)
		bd, err := partition.ByCount(ball, 2, partition.RCB)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, hotCase{fmt.Sprintf("ball1k/G%d", groups), bprob, bd})
	}
	for _, c := range cases {
		if err := c.prob.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.d.NumPatches() != 2 {
			t.Fatalf("%s: %d patches, want 2", c.name, c.d.NumPatches())
		}
	}
	return cases
}

// widenGroups turns a one-group problem into a pure-absorber problem with
// the given number of groups (distinct cross sections and sources per
// group, so a group mix-up changes the flux).
func widenGroups(prob *transport.Problem, groups int) {
	for i := range prob.Mats {
		mat := &prob.Mats[i]
		sigT, src := mat.SigmaT[0], 0.0
		if mat.Source != nil {
			src = mat.Source[0]
		}
		mat.SigmaT, mat.Source, mat.SigmaS = make([]float64, groups), make([]float64, groups), nil
		for g := 0; g < groups; g++ {
			mat.SigmaT[g] = sigT * (1 + 0.5*float64(g))
			mat.Source[g] = src / float64(1+g)
		}
	}
	prob.Groups = groups
}

// fixedSourceQ is the emission density of the fixed source alone.
func fixedSourceQ(prob *transport.Problem) [][]float64 {
	q, zero := prob.NewFlux(), prob.NewFlux()
	scratch := make([]float64, prob.Groups)
	for c := 0; c < prob.M.NumCells(); c++ {
		prob.EmissionDensity(mesh.CellID(c), zero, scratch)
		for g := range scratch {
			q[g][c] = scratch[g]
		}
	}
	return q
}

// handProgram is what the hand driver needs of a fine or coarse program.
type handProgram interface {
	core.PatchProgram
	core.WorkloadReporter
	Reset(q [][]float64)
	PhiLocal() [][]float64
}

// handDriver runs a program set to completion the way Alg. 1 would, with
// nothing in between: a round-robin over the programs, each consuming its
// inbox, computing once and handing its outputs to the targets' inboxes.
// Its own buffers are reused across sweeps, so it adds no allocation.
type handDriver struct {
	progs  [][]handProgram // [angle][patch]
	inbox  [][][]core.Stream
	graphs [][]*graph.PatchGraph
	inited bool
	// onStream, when set, sees every stream between Output and delivery.
	onStream func(s core.Stream)
}

func newHandDriver(progs [][]handProgram, graphs [][]*graph.PatchGraph) *handDriver {
	h := &handDriver{progs: progs, graphs: graphs, inbox: make([][][]core.Stream, len(progs))}
	for a := range progs {
		h.inbox[a] = make([][]core.Stream, len(progs[a]))
	}
	return h
}

func (h *handDriver) sweep(q [][]float64) {
	for a := range h.progs {
		for _, prog := range h.progs[a] {
			prog.Reset(q)
			if !h.inited {
				prog.Init()
			}
		}
	}
	h.inited = true
	for active := true; active; {
		active = false
		for a := range h.progs {
			for p, prog := range h.progs[a] {
				in := h.inbox[a][p]
				if len(in) == 0 && prog.VoteToHalt() {
					continue
				}
				active = true
				// A program never streams to itself, so the inbox can be
				// emptied before its streams are consumed.
				h.inbox[a][p] = in[:0]
				for _, s := range in {
					prog.Input(s)
				}
				clear(in)
				prog.Compute()
				for {
					s, ok := prog.Output()
					if !ok {
						break
					}
					if h.onStream != nil {
						h.onStream(s)
					}
					h.inbox[s.TgtTask][s.TgtPatch] = append(h.inbox[s.TgtTask][s.TgtPatch], s)
				}
			}
		}
	}
}

// flux reduces the programs' local fluxes exactly like the solver does.
func (h *handDriver) flux(t *testing.T, prob *transport.Problem) [][]float64 {
	t.Helper()
	phi := prob.NewFlux()
	for a := range h.progs {
		for p, prog := range h.progs[a] {
			if rem := prog.RemainingWork(); rem != 0 {
				t.Fatalf("program (%d,%d) finished with %d vertices unswept", p, a, rem)
			}
			local := prog.PhiLocal()
			for g := range phi {
				for v, c := range h.graphs[a][p].Cells {
					phi[g][c] += local[g][v]
				}
			}
		}
	}
	return phi
}

// fineDriver builds the fine programs of a case (grain 16, no priorities).
func fineDriver(c hotCase, record bool) (*handDriver, [][]*Program) {
	na, np := len(c.prob.Quad.Directions), c.d.NumPatches()
	graphs := make([][]*graph.PatchGraph, na)
	fine := make([][]*Program, na)
	progs := make([][]handProgram, na)
	for a, dir := range c.prob.Quad.Directions {
		graphs[a] = graph.BuildAllPatchGraphs(c.d, dir.Omega, int32(a))
		for p := 0; p < np; p++ {
			prog := NewProgram(ProgramConfig{Prob: c.prob, Graph: graphs[a][p], Dir: dir, Grain: 16, RecordClusters: record})
			fine[a] = append(fine[a], prog)
			progs[a] = append(progs[a], prog)
		}
	}
	return newHandDriver(progs, graphs), fine
}

// coarseDriver records one fine sweep and builds the coarse programs of
// its clustering.
func coarseDriver(t *testing.T, c hotCase, q [][]float64) *handDriver {
	t.Helper()
	rec, fine := fineDriver(c, true)
	rec.sweep(q)
	var flat []*graph.PatchGraph
	var clusters [][][]int32
	for a := range fine {
		for p, prog := range fine[a] {
			flat = append(flat, rec.graphs[a][p])
			clusters = append(clusters, prog.Clusters())
		}
	}
	cg, err := graph.Coarsen(flat, clusters)
	if err != nil {
		t.Fatal(err)
	}
	np := c.d.NumPatches()
	progs := make([][]handProgram, len(fine))
	for a, dir := range c.prob.Quad.Directions {
		for p := 0; p < np; p++ {
			progs[a] = append(progs[a], NewCoarseProgram(CoarseConfig{
				Prob: c.prob, Graph: rec.graphs[a][p], CG: cg, CVs: cg.ByProgram[a*np+p], Dir: dir,
			}))
		}
	}
	return newHandDriver(progs, rec.graphs)
}

// solverFlux is the same sweep through the solver on the sequential engine.
func solverFlux(t *testing.T, c hotCase, q [][]float64) [][]float64 {
	t.Helper()
	s, err := NewSolver(c.prob, c.d, Options{Sequential: true, Grain: 16})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := s.Sweep(q)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}

func requireSameFlux(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	for g := range want {
		if !slices.Equal(got[g], want[g]) {
			t.Fatalf("%s: group %d flux differs from the solver's", name, g)
		}
	}
}

// requireSteadyState runs the first sweep, which allocates the program
// contexts and fills the buffer pool, and demands AllocsPerRun == 0 from the
// second sweep on (AllocsPerRun's own warm-up call is that second sweep).
// A garbage collection in between changes nothing: the pool keeps what was
// put into it.
func requireSteadyState(t *testing.T, name string, h *handDriver, q [][]float64) {
	t.Helper()
	h.sweep(q)
	if avg := testing.AllocsPerRun(4, func() { h.sweep(q) }); avg != 0 {
		t.Errorf("%s: %v allocations per steady-state sweep, want 0", name, avg)
	}
}

func TestProgramSteadyStateAllocs(t *testing.T) {
	for _, c := range hotCases(t) {
		q := fixedSourceQ(c.prob)
		h, _ := fineDriver(c, false)
		requireSteadyState(t, c.name, h, q)
		requireSameFlux(t, c.name, h.flux(t, c.prob), solverFlux(t, c, q))
	}
}

func TestCoarseProgramSteadyStateAllocs(t *testing.T) {
	for _, c := range hotCases(t) {
		q := fixedSourceQ(c.prob)
		h := coarseDriver(t, c, q)
		requireSteadyState(t, c.name, h, q)
		requireSameFlux(t, c.name, h.flux(t, c.prob), solverFlux(t, c, q))
	}
}

// Every payload of a whole fine and a whole coarse sweep decodes with the
// old decoder and re-encodes with the old encoder to the same bytes, and
// the streams of one program leave in ascending target order.
func TestSweepPayloadsRoundTripThroughOracle(t *testing.T) {
	for _, c := range hotCases(t) {
		G := c.prob.Groups
		scratch := make([]float64, G)
		q := fixedSourceQ(c.prob)
		streams := 0
		collect := func(fluxes *[]faceFlux) func(int32, int8, []float64) {
			*fluxes = (*fluxes)[:0]
			return func(v int32, face int8, psi []float64) {
				*fluxes = append(*fluxes, faceFlux{v: v, face: face, psi: slices.Clone(psi)})
			}
		}
		var fluxes []faceFlux

		fine, _ := fineDriver(c, false)
		fine.onStream = func(s core.Stream) {
			streams++
			if err := decodeFaceFluxes(s.Payload, G, scratch, collect(&fluxes)); err != nil {
				t.Fatalf("%s: fine payload %v->%v: %v", c.name, s.Src(), s.Tgt(), err)
			}
			if !bytes.Equal(encodeFaceFluxes(nil, G, fluxes), s.Payload) {
				t.Fatalf("%s: fine payload %v->%v is not what the old encoder writes", c.name, s.Src(), s.Tgt())
			}
			if s.SrcTask != s.TgtTask || s.SrcPatch == s.TgtPatch {
				t.Fatalf("%s: fine stream %v->%v leaves its angle or stays in its patch", c.name, s.Src(), s.Tgt())
			}
		}
		fine.sweep(q)

		coarse := coarseDriver(t, c, q)
		coarse.onStream = func(s core.Stream) {
			streams++
			cv, err := decodeCoarsePayload(s.Payload, G, scratch, collect(&fluxes))
			if err != nil {
				t.Fatalf("%s: coarse payload %v->%v: %v", c.name, s.Src(), s.Tgt(), err)
			}
			if !bytes.Equal(encodeCoarsePayload(nil, cv, G, fluxes), s.Payload) {
				t.Fatalf("%s: coarse payload %v->%v is not what the old encoder writes", c.name, s.Src(), s.Tgt())
			}
		}
		coarse.sweep(q)
		if streams == 0 {
			t.Fatalf("%s: no stream crossed the patch boundary", c.name)
		}
	}
}

// syntheticGraph is a patch graph of n source vertices (no local edges, no
// in-degrees) over the first n cells of a mesh, with random remote edges
// into the given patches: every Compute solves the next grain vertices in
// ascending order and its output is determined by the edges alone. The
// stream plan is derived here, independently of package graph's builder.
func syntheticGraph(rng *rand.Rand, n, maxFaces int, patches []mesh.PatchID) *graph.PatchGraph {
	g := &graph.PatchGraph{
		Patch:       1,
		Angle:       2,
		Cells:       make([]mesh.CellID, n),
		InDegree:    make([]int32, n),
		LocalStart:  make([]int32, n+1),
		RemoteStart: make([]int32, n+1),
	}
	seen := map[mesh.PatchID]bool{}
	for v := 0; v < n; v++ {
		g.Cells[v] = mesh.CellID(v)
		for e := rng.Intn(maxFaces + 1); e > 0; e-- {
			to := patches[rng.Intn(len(patches))]
			seen[to] = true
			g.RemoteAdj = append(g.RemoteAdj, graph.RemoteEdge{
				ToPatch: to,
				To:      int32(rng.Intn(1 << 20)),
				SrcFace: int8(rng.Intn(maxFaces)),
				Face:    int8(rng.Intn(maxFaces)),
			})
		}
		g.RemoteStart[v+1] = int32(len(g.RemoteAdj))
	}
	for p := range seen {
		g.Targets = append(g.Targets, p)
	}
	slices.Sort(g.Targets)
	g.TargetEdges = make([]int32, len(g.Targets))
	for i := range g.RemoteAdj {
		slot, _ := slices.BinarySearch(g.Targets, g.RemoteAdj[i].ToPatch)
		g.RemoteAdj[i].Slot = uint16(slot)
		g.TargetEdges[slot]++
	}
	return g
}

// oracleCompute is what the old Program.Compute handed to Output for the
// vertices [lo,hi) of a synthetic graph: fluxes staged per target key in a
// map, keys sorted, one encode pass each. psiOut is the kernel's output
// scratch, kept across calls as the program keeps its own: a random SrcFace
// may name a face the kernel did not write for this cell.
func oracleCompute(prob *transport.Problem, g *graph.PatchGraph, dir quadrature.Direction, q [][]float64, psiOut []float64, lo, hi int) []core.Stream {
	G, mf := prob.Groups, prob.MaxFaces()
	qCell, psiIn, psiBar := make([]float64, G), make([]float64, mf*G), make([]float64, G)
	task := core.TaskTag(g.Angle)
	staged := map[core.ProgramKey][]faceFlux{}
	for v := lo; v < hi; v++ {
		c := g.Cells[v]
		for gr := 0; gr < G; gr++ {
			qCell[gr] = q[gr][c]
		}
		prob.SolveCell(c, dir.Omega, qCell, psiIn, psiOut, psiBar)
		for _, e := range g.RemoteEdges(int32(v)) {
			key := core.ProgramKey{Patch: e.ToPatch, Task: task}
			psi := slices.Clone(psiOut[int(e.SrcFace)*G : int(e.SrcFace)*G+G])
			staged[key] = append(staged[key], faceFlux{v: e.To, face: e.Face, psi: psi})
		}
	}
	keys := make([]core.ProgramKey, 0, len(staged))
	for k := range staged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Patch < keys[j].Patch })
	var out []core.Stream
	for _, k := range keys {
		out = append(out, core.Stream{
			SrcPatch: g.Patch, SrcTask: task, TgtPatch: k.Patch, TgtTask: k.Task,
			Payload: encodeFaceFluxes(nil, G, staged[k]),
		})
	}
	return out
}

// One Compute's streams are byte-identical, and in identical order, to the
// old staged encoder's over random edges, fluxes, grains and group counts.
func TestComputeStreamsMatchOldEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	patches := []mesh.PatchID{0, 3, 4, 9, 17, 40}
	for _, c := range hotCases(t) {
		G, mf := c.prob.Groups, c.prob.MaxFaces()
		dir := c.prob.Quad.Directions[3]
		for trial := 0; trial < 8; trial++ {
			n := 40 + rng.Intn(60)
			g := syntheticGraph(rng, n, mf, patches)
			q := c.prob.NewFlux()
			for gr := range q {
				for cell := range q[gr] {
					q[gr][cell] = rng.Float64()
				}
			}
			grain := 1 + rng.Intn(24)
			p := NewProgram(ProgramConfig{Prob: c.prob, Graph: g, Dir: dir, Q: q, Grain: grain})
			p.Init()
			psiOut := make([]float64, mf*G)
			for lo := 0; lo < n; lo += grain {
				hi := min(lo+grain, n)
				want := oracleCompute(c.prob, g, dir, q, psiOut, lo, hi)
				p.Compute()
				for i := 0; ; i++ {
					got, ok := p.Output()
					if !ok {
						if i != len(want) {
							t.Fatalf("%s trial %d: Compute [%d,%d) emitted %d streams, old encoder %d", c.name, trial, lo, hi, i, len(want))
						}
						break
					}
					if i >= len(want) {
						t.Fatalf("%s trial %d: Compute [%d,%d) emitted more than the old encoder's %d streams", c.name, trial, lo, hi, len(want))
					}
					w := want[i]
					if got.Src() != w.Src() || got.Tgt() != w.Tgt() {
						t.Fatalf("%s trial %d: stream %d is %v->%v, old encoder %v->%v", c.name, trial, i, got.Src(), got.Tgt(), w.Src(), w.Tgt())
					}
					if !bytes.Equal(got.Payload, w.Payload) {
						t.Fatalf("%s trial %d: payload of stream %d (%v->%v) differs from the old encoder's", c.name, trial, i, got.Src(), got.Tgt())
					}
					if len(got.Payload) != StreamPayloadBytes((len(got.Payload)-4)/faceFluxRecordBytes(G), G) {
						t.Fatalf("%s trial %d: payload size %d is not a whole number of records", c.name, trial, len(got.Payload))
					}
				}
			}
			if !p.VoteToHalt() || p.RemainingWork() != 0 {
				t.Fatalf("%s trial %d: program not finished after %d vertices", c.name, trial, n)
			}
		}
	}
}

// inputPanic returns what Input panicked with (nil when it did not).
func inputPanic(p core.PatchProgram, payload []byte) (recovered any) {
	defer func() { recovered = recover() }()
	p.Input(core.Stream{Payload: payload})
	return nil
}

// Truncated and wrong-count payloads surface from Input as a panic carrying
// the error the old decoder returned for the same bytes.
func TestInputPanicsLikeOldDecoder(t *testing.T) {
	c := hotCases(t)[1] // koba8, three groups
	G := c.prob.Groups
	q := fixedSourceQ(c.prob)
	scratch := make([]float64, G)
	nop := func(int32, int8, []float64) {}
	good := encodeFaceFluxes(nil, G, []faceFlux{
		{v: 1, face: 0, psi: []float64{1, 2, 3}},
		{v: 2, face: 1, psi: []float64{4, 5, 6}},
	})
	inflated := slices.Clone(good)
	inflated[0]++ // count says 3, bytes hold 2
	fineBad := [][]byte{nil, {1, 2, 3}, good[:len(good)-1], inflated, append(slices.Clone(good), 0)}

	fine, _ := fineDriver(c, false)
	fine.sweep(q) // allocate the contexts
	fp := fine.progs[0][1]
	for i, payload := range fineBad {
		want := decodeFaceFluxes(payload, G, scratch, nop)
		if want == nil {
			t.Fatalf("fine payload %d: the old decoder accepts it — not a malformed case", i)
		}
		got, _ := inputPanic(fp, payload).(error)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("fine payload %d: Input panicked with %v, old decoder said %v", i, got, want)
		}
	}

	coarse := coarseDriver(t, c, q)
	coarse.sweep(q)
	cp := coarse.progs[0][1]
	header := []byte{0, 0, 0, 0}
	var coarseBad [][]byte
	for _, payload := range fineBad {
		coarseBad = append(coarseBad, append(slices.Clone(header), payload...))
	}
	coarseBad = append(coarseBad, nil, []byte{7})
	for i, payload := range coarseBad {
		_, want := decodeCoarsePayload(payload, G, scratch, nop)
		if want == nil {
			t.Fatalf("coarse payload %d: the old decoder accepts it — not a malformed case", i)
		}
		got, _ := inputPanic(cp, payload).(error)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("coarse payload %d: Input panicked with %v, old decoder said %v", i, got, want)
		}
	}
}
