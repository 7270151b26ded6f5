package sweep

import (
	"encoding/binary"
	"fmt"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/graph"
	"jsweep/internal/quadrature"
	"jsweep/internal/transport"
)

// CoarseProgram executes one (patch, angle)'s share of a coarsened graph
// (§V-E): scheduling happens per coarse vertex (one recorded cluster) and
// communication per coarse edge, eliminating the per-vertex counter and
// per-edge message bookkeeping of the fine sweep. Numerical results are
// identical to the fine sweep — only scheduling granularity changes.
type CoarseProgram struct {
	Key core.ProgramKey

	prob *transport.Problem
	g    *graph.PatchGraph
	cg   *graph.CoarseGraph
	// cvs lists this program's coarse vertex ids (cluster order).
	cvs []int32
	dir quadrature.Direction
	q   [][]float64

	counts []int32 // per local coarse vertex
	// ready holds ready local coarse indices (FIFO), consumed through the
	// readyHead cursor so the backing array is reusable.
	ready     []int32
	readyHead int
	psiFace   []float64
	outBuf    []float64 // outgoing face fluxes per [v*maxFaces*G]
	phiLocal  [][]float64
	// pending is consumed through the pendingHead cursor so the backing
	// array is reusable across Compute calls and rounds.
	pending     []core.Stream
	pendingHead int
	// remaining counts unfinished fine vertices (workload semantics match
	// the fine program).
	remaining int64

	// lag is the shared lagged-flux store breaking cyclic dependencies
	// (nil on acyclic meshes); lagOutStart indexes the fine graph's LagOut
	// entries by local vertex (CSR, nil without lagged out-edges).
	lag         *LagStore
	lagOutStart []int32

	qCell, psiOut, psiBar []float64

	computeCalls int64
}

// CoarseConfig bundles a coarse program's inputs.
type CoarseConfig struct {
	Prob *transport.Problem
	// Graph is the fine subgraph (needed for kernel-level propagation).
	Graph *graph.PatchGraph
	// CG is the shared coarsened graph; CVs lists this program's coarse
	// vertex ids in cluster order (graph.CoarseGraph.ByProgram entry).
	CG  *graph.CoarseGraph
	CVs []int32
	Dir quadrature.Direction
	Q   [][]float64
	// Lag is the solver's lagged-flux store; required when Graph has
	// lagged edges, ignored (may be nil) otherwise.
	Lag *LagStore
}

// NewCoarseProgram builds a coarse sweep program.
func NewCoarseProgram(cfg CoarseConfig) *CoarseProgram {
	return &CoarseProgram{
		Key:  core.ProgramKey{Patch: cfg.Graph.Patch, Task: core.TaskTag(cfg.Graph.Angle)},
		prob: cfg.Prob,
		g:    cfg.Graph,
		cg:   cfg.CG,
		cvs:  cfg.CVs,
		dir:  cfg.Dir,
		q:    cfg.Q,
		lag:  cfg.Lag,
	}
}

// PhiLocal exposes the accumulated w·ψ̄ [group][local fine vertex].
func (p *CoarseProgram) PhiLocal() [][]float64 { return p.phiLocal }

// ComputeCalls returns the number of Compute invocations.
func (p *CoarseProgram) ComputeCalls() int64 { return p.computeCalls }

// Init implements core.PatchProgram. It runs exactly once per session;
// persistent sessions rearm the program between rounds with Reset.
func (p *CoarseProgram) Init() {
	p.ensure()
	p.resetState()
}

// Reset rebinds the emission source and restores the just-initialized
// state in place, reusing every buffer (the runtime will not call Init
// again).
func (p *CoarseProgram) Reset(q [][]float64) {
	p.q = q
	if p.counts != nil {
		p.resetState()
	}
}

// ensure allocates the program's local context once.
func (p *CoarseProgram) ensure() {
	if p.counts != nil {
		return
	}
	n := p.g.NumVertices()
	G := p.prob.Groups
	mf := p.prob.MaxFaces()
	p.psiFace = make([]float64, n*mf*G)
	p.outBuf = make([]float64, n*mf*G)
	p.phiLocal = make([][]float64, G)
	for g := range p.phiLocal {
		p.phiLocal[g] = make([]float64, n)
	}
	p.counts = make([]int32, len(p.cvs))
	p.qCell = make([]float64, G)
	p.psiOut = make([]float64, mf*G)
	p.psiBar = make([]float64, G)
	p.lagOutStart = lagOutStarts(p.g)
}

// resetState restores the just-initialized state, reusing the buffers.
func (p *CoarseProgram) resetState() {
	// Unwritten face slots are the vacuum boundary condition ψ=0. outBuf
	// needs no clear: every read slot is written when its vertex solves.
	clear(p.psiFace)
	// Lagged incoming faces read the previous sweep's flux.
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
	p.remaining = int64(p.g.NumVertices())
	p.computeCalls = 0
	clear(p.pending)
	p.pending = p.pending[:0]
	p.pendingHead = 0
	// Source coarse vertices start ready, in ascending local index.
	p.ready = p.ready[:0]
	p.readyHead = 0
	for i, cv := range p.cvs {
		p.counts[i] = p.cg.InDeg[cv]
		if p.counts[i] == 0 {
			p.ready = append(p.ready, int32(i))
		}
	}
}

// Input implements core.PatchProgram: one stream = one incoming coarse
// edge's aggregated fluxes.
func (p *CoarseProgram) Input(s core.Stream) {
	G := p.prob.Groups
	mf := p.prob.MaxFaces()
	buf := s.Payload
	if len(buf) < coarseHeaderBytes {
		panic(fmt.Errorf("sweep: coarse payload truncated"))
	}
	li := int32(binary.LittleEndian.Uint32(buf)) // our local coarse index
	count, err := fluxRecordCount(buf[coarseHeaderBytes:], G)
	if err != nil {
		panic(err)
	}
	rec := faceFluxRecordBytes(G)
	for off := coarseHeaderBytes + 4; count > 0; count, off = count-1, off+rec {
		scatterFaceFlux(buf[off:off+rec], G, mf, p.psiFace)
	}
	// Fully decoded, and ours since the producer's Output: recycle it.
	comm.PutBuffer(buf)
	p.counts[li]--
	if p.counts[li] == 0 {
		p.ready = append(p.ready, li)
	}
}

// Compute implements core.PatchProgram: execute every ready coarse vertex.
func (p *CoarseProgram) Compute() {
	p.computeCalls++
	G := p.prob.Groups
	mf := p.prob.MaxFaces()
	w := p.dir.Weight
	for p.readyHead < len(p.ready) {
		ci := p.ready[p.readyHead]
		p.readyHead++
		cv := p.cvs[ci]
		// Solve the member fine vertices in recorded order.
		for _, v := range p.cg.Verts[cv] {
			c := p.g.Cells[v]
			base := int(v) * mf * G
			for g := 0; g < G; g++ {
				p.qCell[g] = p.q[g][c]
			}
			p.prob.SolveCell(c, p.dir.Omega, p.qCell, p.psiFace[base:base+mf*G], p.psiOut, p.psiBar)
			for g := 0; g < G; g++ {
				p.phiLocal[g][v] += w * p.psiBar[g]
			}
			copy(p.outBuf[base:base+mf*G], p.psiOut[:mf*G])
			// Lagged downwind edges: store the flux for the next sweep.
			if p.lagOutStart != nil {
				for _, lo := range p.g.LagOut[p.lagOutStart[v]:p.lagOutStart[v+1]] {
					p.lag.StoreNew(p.g.Angle, lo.Idx, p.psiOut[int(lo.SrcFace)*G:int(lo.SrcFace)*G+G])
				}
			}
			// Fine local edges: propagate immediately (targets are in this
			// or a later coarse vertex of this program).
			for _, e := range p.g.LocalEdges(v) {
				dst := (int(e.To)*mf + int(e.Face)) * G
				src := int(e.SrcFace) * G
				copy(p.psiFace[dst:dst+G], p.psiOut[src:src+G])
			}
			p.remaining--
		}
		// Coarse out-edges.
		tos, unders := p.cg.Edges(cv)
		for i, to := range tos {
			if p.cg.Patch[to] == p.Key.Patch && p.cg.Angle[to] == p.g.Angle {
				// Mine: the receiver indexes counts by its local coarse index.
				li := p.cg.LocalIndex(to)
				p.counts[li]--
				if p.counts[li] == 0 {
					p.ready = append(p.ready, li)
				}
				continue
			}
			// Remote coarse edge: encode P(ce)'s fluxes straight from outBuf
			// into an exactly sized payload.
			under := unders[i]
			buf := comm.GetBuffer(coarseHeaderBytes + StreamPayloadBytes(len(under), G))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p.cg.LocalIndex(to)))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(under)))
			for _, ue := range under {
				src := (int(ue.SrcV)*mf + int(ue.SrcFace)) * G
				buf = appendFaceFlux(buf, ue.DstV, ue.DstFace, p.outBuf[src:src+G])
			}
			p.pending = append(p.pending, core.Stream{
				SrcPatch: p.Key.Patch, SrcTask: p.Key.Task,
				TgtPatch: p.cg.Patch[to], TgtTask: core.TaskTag(p.cg.Angle[to]),
				Payload: buf,
			})
		}
	}
	p.ready = p.ready[:0]
	p.readyHead = 0
}

// Output implements core.PatchProgram; the payload is handed over with the
// stream.
func (p *CoarseProgram) Output() (core.Stream, bool) {
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

// VoteToHalt implements core.PatchProgram.
func (p *CoarseProgram) VoteToHalt() bool { return p.readyHead >= len(p.ready) }

// RemainingWork implements core.WorkloadReporter.
func (p *CoarseProgram) RemainingWork() int64 { return p.remaining }

var _ core.PatchProgram = (*CoarseProgram)(nil)
var _ core.PatchProgram = (*Program)(nil)
var _ core.WorkloadReporter = (*CoarseProgram)(nil)
var _ core.WorkloadReporter = (*Program)(nil)
