package sweep

import (
	"encoding/binary"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/graph"
	"jsweep/internal/quadrature"
	"jsweep/internal/transport"
)

// Program is the data-driven sweep patch-program of paper Listing 1 for one
// (patch, angle) pair. Its local context — dependency counters, the
// priority queue of ready vertices, face-flux storage and pending output
// streams — survives across activations, making it fully reentrant
// (partial computation, §III-A1).
type Program struct {
	// Key identifies this program: Patch = patch id, Task = angle id.
	Key core.ProgramKey

	prob  *transport.Problem
	g     *graph.PatchGraph
	dir   quadrature.Direction
	q     [][]float64 // emission density [group][globalCell]
	grain int         // vertex clustering grain N (§V-C)

	// counts[v] is the number of unfinished upwind vertices (Listing 1
	// line 6).
	counts []int32
	// ready is the priority queue Q of Listing 1 line 7, ordered by the
	// vertex priority strategy.
	ready vertexQueue
	prio  []int32
	// psiFace stores incoming face fluxes: [v*maxFaces*G + f*G + g].
	psiFace []float64
	// phiLocal accumulates w·ψ̄ per [group][local vertex]; the solver
	// reduces programs in angle order, keeping results bit-reproducible.
	phiLocal [][]float64
	// out aggregates boundary fluxes per target program (Listing 1 line 8):
	// one in-progress payload per stream-plan slot (graph.PatchGraph.Targets),
	// records encoded in place at the edge; outPending counts the records
	// awaiting flush. pending holds finished streams awaiting Output,
	// consumed through the pendingHead cursor so the backing array is
	// reusable.
	out         []outSlot
	outPending  int
	pending     []core.Stream
	pendingHead int
	remaining   int64

	// recordClusters makes Compute record each vertex batch for graph
	// coarsening (§V-E).
	recordClusters bool
	clusters       [][]int32

	// lag is the shared lagged-flux store breaking cyclic dependencies
	// (nil on acyclic meshes); lagOutStart indexes the graph's LagOut
	// entries by local vertex (CSR, nil without lagged out-edges) for the
	// Compute hot path.
	lag         *LagStore
	lagOutStart []int32

	// scratch buffers reused across vertices.
	qCell, psiOut, psiBar []float64

	// stats
	computeCalls int64
	solvedBatch  int64
}

// outSlot is the outgoing payload of one stream-plan slot while a Compute
// builds it: the count word (patched at flush) followed by n records. buf is
// nil between flushes; it comes from comm.GetBuffer sized for the most
// records the slot can ever see in one Compute, so appends never regrow it.
type outSlot struct {
	buf []byte
	n   uint32
	// size is that worst-case payload size in bytes.
	size int
}

// ProgramConfig bundles the immutable inputs of a sweep program.
type ProgramConfig struct {
	Prob *transport.Problem
	// Graph is this (patch, angle)'s dependency subgraph.
	Graph *graph.PatchGraph
	// Dir is the quadrature direction of the angle.
	Dir quadrature.Direction
	// Q is the emission density [group][globalCell].
	Q [][]float64
	// Grain is the vertex clustering grain (≥ 1).
	Grain int
	// VertexPrio orders the ready queue (one entry per local vertex).
	VertexPrio []int32
	// RecordClusters enables cluster recording for coarsening.
	RecordClusters bool
	// Lag is the solver's lagged-flux store; required when Graph has
	// lagged edges, ignored (may be nil) otherwise.
	Lag *LagStore
}

// NewProgram builds a sweep patch-program.
func NewProgram(cfg ProgramConfig) *Program {
	grain := cfg.Grain
	if grain < 1 {
		grain = 1
	}
	return &Program{
		Key:            core.ProgramKey{Patch: cfg.Graph.Patch, Task: core.TaskTag(cfg.Graph.Angle)},
		prob:           cfg.Prob,
		g:              cfg.Graph,
		dir:            cfg.Dir,
		q:              cfg.Q,
		grain:          grain,
		prio:           cfg.VertexPrio,
		recordClusters: cfg.RecordClusters,
		lag:            cfg.Lag,
	}
}

// PhiLocal exposes the accumulated w·ψ̄ [group][local vertex] after a run.
func (p *Program) PhiLocal() [][]float64 { return p.phiLocal }

// Clusters returns the recorded vertex clusters (RecordClusters mode).
func (p *Program) Clusters() [][]int32 { return p.clusters }

// Graph returns the program's dependency subgraph.
func (p *Program) Graph() *graph.PatchGraph { return p.g }

// ComputeCalls returns the number of Compute invocations (scheduling events).
func (p *Program) ComputeCalls() int64 { return p.computeCalls }

// Init implements core.PatchProgram (Listing 1 init): allocate the local
// context on first use, reset counters, collect source vertices into the
// ready queue. Init runs exactly once per session; persistent sessions
// rearm the program between rounds with Reset instead.
func (p *Program) Init() {
	p.ensure()
	p.resetState()
}

// Reset rebinds the emission source and returns the program to its
// just-initialized state in place, reusing every buffer. Persistent
// sessions call it between rounds instead of rebuilding the program; the
// runtime will not call Init again.
func (p *Program) Reset(q [][]float64) {
	p.q = q
	if p.counts != nil {
		p.resetState()
	}
}

// ensure allocates the program's local context once.
func (p *Program) ensure() {
	if p.counts != nil {
		return
	}
	n := p.g.NumVertices()
	G := p.prob.Groups
	mf := p.prob.MaxFaces()
	p.counts = make([]int32, n)
	p.psiFace = make([]float64, n*mf*G)
	p.phiLocal = make([][]float64, G)
	for g := range p.phiLocal {
		p.phiLocal[g] = make([]float64, n)
	}
	p.out = newOutSlots(p.g, p.grain*mf, G)
	p.qCell = make([]float64, G)
	p.psiOut = make([]float64, mf*G)
	p.psiBar = make([]float64, G)
	// Presized to their bounds, so no schedule grows them: every vertex
	// can be ready at once, and one Compute flushes at most one stream per
	// stream-plan target before Output drains them.
	p.ready = vertexQueue{prio: p.prio, heap: make([]int32, 0, n)}
	p.pending = make([]core.Stream, 0, len(p.g.Targets))
	p.lagOutStart = lagOutStarts(p.g)
}

// newOutSlots sizes one outSlot per stream-plan target of g: a slot sees at
// most one record per remote edge into its patch over a whole sweep, and at
// most perCompute records in one Compute.
func newOutSlots(g *graph.PatchGraph, perCompute, groups int) []outSlot {
	out := make([]outSlot, len(g.Targets))
	for i := range out {
		out[i].size = StreamPayloadBytes(min(int(g.TargetEdges[i]), perCompute), groups)
	}
	return out
}

// resetState restores the just-initialized state, reusing the buffers.
func (p *Program) resetState() {
	n := p.g.NumVertices()
	copy(p.counts, p.g.InDegree)
	// Unwritten face slots are the vacuum boundary condition ψ=0.
	clear(p.psiFace)
	// Lagged incoming faces read the previous sweep's flux (zero before
	// the first sweep); they carry no in-degree, so readiness is unchanged.
	if len(p.g.LagIn) > 0 {
		G := p.prob.Groups
		mf := p.prob.MaxFaces()
		a := p.g.Angle
		for _, li := range p.g.LagIn {
			base := (int(li.V)*mf + int(li.Face)) * G
			copy(p.psiFace[base:base+G], p.lag.Old(a, li.Idx))
		}
	}
	for g := range p.phiLocal {
		clear(p.phiLocal[g])
	}
	for i := range p.out {
		p.out[i].buf, p.out[i].n = nil, 0
	}
	p.outPending = 0
	clear(p.pending)
	p.pending = p.pending[:0]
	p.pendingHead = 0
	p.remaining = int64(n)
	p.clusters = nil
	p.computeCalls = 0
	p.solvedBatch = 0
	p.ready.heap = p.ready.heap[:0]
	for v := int32(0); v < int32(n); v++ {
		if p.counts[v] == 0 {
			p.ready.push(v)
		}
	}
}

// Input implements core.PatchProgram (Listing 1 input): receive remote
// face fluxes, decrement counters, enqueue newly-ready vertices.
func (p *Program) Input(s core.Stream) {
	G := p.prob.Groups
	mf := p.prob.MaxFaces()
	buf := s.Payload
	count, err := fluxRecordCount(buf, G)
	if err != nil {
		// A malformed payload is a programming error in this closed
		// system; surface loudly.
		panic(err)
	}
	rec := faceFluxRecordBytes(G)
	for off := 4; count > 0; count, off = count-1, off+rec {
		v := scatterFaceFlux(buf[off:off+rec], G, mf, p.psiFace)
		p.counts[v]--
		if p.counts[v] == 0 {
			p.ready.push(v)
		}
	}
	// The payload is fully decoded and was handed to us at the producer's
	// Output: recycle it.
	comm.PutBuffer(buf)
}

// Compute implements core.PatchProgram (Listing 1 compute): dequeue up to
// grain ready vertices, solve them, propagate to downwind vertices.
func (p *Program) Compute() {
	p.computeCalls++
	if p.ready.Len() == 0 {
		return
	}
	G := p.prob.Groups
	mf := p.prob.MaxFaces()
	w := p.dir.Weight
	var batch []int32
	if p.recordClusters {
		batch = make([]int32, 0, p.grain)
	}
	for solved := 0; solved < p.grain && p.ready.Len() > 0; solved++ {
		v := p.ready.pop()
		if p.recordClusters {
			batch = append(batch, v)
		}
		c := p.g.Cells[v]
		base := v * int32(mf) * int32(G)
		for g := 0; g < G; g++ {
			p.qCell[g] = p.q[g][c]
		}
		p.prob.SolveCell(c, p.dir.Omega, p.qCell, p.psiFace[base:base+int32(mf*G)], p.psiOut, p.psiBar)
		for g := 0; g < G; g++ {
			p.phiLocal[g][v] += w * p.psiBar[g]
		}
		// Lagged downwind edges: store the flux for the next sweep instead
		// of propagating it now.
		if p.lagOutStart != nil {
			for _, lo := range p.g.LagOut[p.lagOutStart[v]:p.lagOutStart[v+1]] {
				p.lag.StoreNew(p.g.Angle, lo.Idx, p.psiOut[int(lo.SrcFace)*G:int(lo.SrcFace)*G+G])
			}
		}
		// Local downwind edges: write the face flux straight into the
		// neighbour's slot.
		for _, e := range p.g.LocalEdges(v) {
			dst := (int(e.To)*mf + int(e.Face)) * G
			src := int(e.SrcFace) * G
			copy(p.psiFace[dst:dst+G], p.psiOut[src:src+G])
			p.counts[e.To]--
			if p.counts[e.To] == 0 {
				p.ready.push(e.To)
			}
		}
		// Remote downwind edges: aggregate per target program (§V-C),
		// encoding the record straight into the target slot's payload.
		for _, e := range p.g.RemoteEdges(v) {
			sl := &p.out[e.Slot]
			if sl.buf == nil {
				sl.buf = comm.GetBuffer(sl.size)[:4]
			}
			src := int(e.SrcFace) * G
			sl.buf = appendFaceFlux(sl.buf, e.To, e.Face, p.psiOut[src:src+G])
			sl.n++
			p.outPending++
		}
		p.remaining--
	}
	if p.recordClusters && len(batch) > 0 {
		p.clusters = append(p.clusters, batch)
	}
	p.solvedBatch++
	p.flushOutstreams()
}

// flushOutstreams turns the slots' payloads into pending streams, one per
// target program, walking the stream plan in order: ascending target patch,
// this program's task — the deterministic stream order of one Compute.
func (p *Program) flushOutstreams() {
	if p.outPending == 0 {
		return
	}
	for i := range p.out {
		sl := &p.out[i]
		if sl.n == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(sl.buf, sl.n)
		p.pending = append(p.pending, core.Stream{
			SrcPatch: p.Key.Patch, SrcTask: p.Key.Task,
			TgtPatch: p.g.Targets[i], TgtTask: p.Key.Task,
			Payload: sl.buf,
		})
		sl.buf, sl.n = nil, 0
	}
	p.outPending = 0
}

// Output implements core.PatchProgram (Listing 1 output). The payload is
// handed over with the stream: the program keeps no reference to it.
func (p *Program) Output() (core.Stream, bool) {
	if p.pendingHead >= len(p.pending) {
		p.pending = p.pending[:0]
		p.pendingHead = 0
		return core.Stream{}, false
	}
	s := p.pending[p.pendingHead]
	p.pending[p.pendingHead] = core.Stream{}
	p.pendingHead++
	return s, true
}

// VoteToHalt implements core.PatchProgram (Listing 1 vote_to_halt): halt
// when no vertex is ready.
func (p *Program) VoteToHalt() bool { return p.ready.Len() == 0 }

// RemainingWork implements core.WorkloadReporter: unfinished (cell, angle)
// count of this program.
func (p *Program) RemainingWork() int64 { return p.remaining }

// vertexQueue is a max-heap of local vertex ids ordered by prio (ties by
// vertex id for determinism — a strict total order, so pop order is
// independent of heap internals). It is hand-rolled instead of
// container/heap to avoid boxing an interface value per pushed vertex on
// the hottest scheduling path.
type vertexQueue struct {
	prio []int32
	heap []int32
}

func (q *vertexQueue) Len() int { return len(q.heap) }

func (q *vertexQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if q.prio != nil && q.prio[a] != q.prio[b] {
		return q.prio[a] > q.prio[b]
	}
	return a < b
}

func (q *vertexQueue) push(v int32) {
	h := q.heap
	h = append(h, v)
	q.heap = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *vertexQueue) pop() int32 {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.less(l, best) {
			best = l
		}
		if r < n && q.less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}
