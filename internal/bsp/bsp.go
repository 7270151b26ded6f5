// Package bsp implements the Bulk-Synchronous-Parallel sweep baseline —
// the way a data-driven sweep must be phrased in a classic patch-based
// framework like JAxMIN before JSweep (paper §II-B, §II-D): in every
// superstep each (patch, angle) computes all vertices that are ready with
// the data received up to the previous barrier, then a global halo
// exchange delivers the produced boundary fluxes. The number of supersteps
// equals the patch-level critical path, and every barrier stalls all
// patches on the globally slowest one — precisely the inefficiency the
// data-driven runtime removes.
//
// Numerically the BSP executor is exactly equivalent to the serial
// reference (it is just another dependency-respecting schedule).
package bsp

import (
	"fmt"
	"sort"
	"sync"

	"jsweep/internal/graph"
	"jsweep/internal/mesh"
	"jsweep/internal/transport"
)

// Stats reports the cost structure of the last sweep.
type Stats struct {
	// Supersteps is the number of compute+exchange rounds.
	Supersteps int
	// Messages is the number of (source patch, target patch, angle) halo
	// transfers summed over supersteps.
	Messages int64
	// VertexSolves counts kernel invocations (= cells × angles).
	VertexSolves int64
}

// Executor is the BSP sweep baseline. It implements
// transport.SweepExecutor.
type Executor struct {
	prob   *transport.Problem
	d      *mesh.Decomposition
	graphs [][]*graph.PatchGraph // [angle][patch]
	// Parallelism bounds the goroutines used per superstep (defaults to
	// the number of programs; 1 forces serial supersteps).
	Parallelism int

	stats Stats
}

// New builds a BSP executor over a decomposition.
func New(prob *transport.Problem, d *mesh.Decomposition) (*Executor, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if d.Mesh != prob.M {
		return nil, fmt.Errorf("bsp: decomposition and problem use different meshes")
	}
	e := &Executor{prob: prob, d: d}
	na := len(prob.Quad.Directions)
	e.graphs = make([][]*graph.PatchGraph, na)
	conn := graph.NewConnectivity(d.Mesh)
	for a := 0; a < na; a++ {
		e.graphs[a] = conn.PatchGraphs(d, conn.Signature(prob.Quad.Directions[a].Omega), int32(a), nil)
	}
	return e, nil
}

// Stats returns the statistics of the last Sweep.
func (e *Executor) Stats() Stats { return e.stats }

// progState is the per-(patch, angle) BSP state.
type progState struct {
	g       *graph.PatchGraph
	counts  []int32
	ready   []int32
	psiFace []float64
	phi     [][]float64 // [group][local vertex] w·ψ̄
	// outbox collects remote face fluxes produced this superstep:
	// (target program index, target vertex, face, psi...).
	outbox []remoteFlux
	solved int64
}

type remoteFlux struct {
	tgtProg int32
	v       int32
	face    int8
	psi     []float64
}

// Sweep implements transport.SweepExecutor.
func (e *Executor) Sweep(q [][]float64) ([][]float64, error) {
	na := len(e.prob.Quad.Directions)
	np := e.d.NumPatches()
	G := e.prob.Groups
	mf := e.prob.MaxFaces()
	states := make([]*progState, na*np)
	idx := func(a, p int) int { return a*np + p }
	for a := 0; a < na; a++ {
		for p := 0; p < np; p++ {
			g := e.graphs[a][p]
			st := &progState{
				g:       g,
				counts:  append([]int32(nil), g.InDegree...),
				psiFace: make([]float64, g.NumVertices()*mf*G),
				phi:     make([][]float64, G),
			}
			for gg := range st.phi {
				st.phi[gg] = make([]float64, g.NumVertices())
			}
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				if st.counts[v] == 0 {
					st.ready = append(st.ready, v)
				}
			}
			states[idx(a, p)] = st
		}
	}

	par := e.Parallelism
	if par < 1 {
		par = len(states)
	}
	e.stats = Stats{}
	total := int64(e.prob.M.NumCells()) * int64(na)
	var solvedTotal int64

	for {
		// Compute phase: every program drains its ready set.
		work := make(chan int, len(states))
		for i := range states {
			if len(states[i].ready) > 0 {
				work <- i
			}
		}
		close(work)
		if len(work) == 0 && solvedTotal < total {
			return nil, fmt.Errorf("bsp: stalled after %d supersteps with %d of %d vertices solved (cyclic dependency?)", e.stats.Supersteps, solvedTotal, total)
		}
		if solvedTotal == total {
			break
		}
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					e.drain(states[i], idx, q)
				}
			}()
		}
		wg.Wait()
		// Exchange phase (the barrier): deliver all outboxes.
		for _, st := range states {
			if len(st.outbox) == 0 {
				continue
			}
			// Count distinct (src, tgt) messages like a halo exchange
			// would batch them.
			sort.Slice(st.outbox, func(x, y int) bool { return st.outbox[x].tgtProg < st.outbox[y].tgtProg })
			last := int32(-1)
			for _, rf := range st.outbox {
				if rf.tgtProg != last {
					e.stats.Messages++
					last = rf.tgtProg
				}
				tgt := states[rf.tgtProg]
				base := (int(rf.v)*mf + int(rf.face)) * G
				copy(tgt.psiFace[base:base+G], rf.psi)
				tgt.counts[rf.v]--
				if tgt.counts[rf.v] == 0 {
					tgt.ready = append(tgt.ready, rf.v)
				}
			}
			st.outbox = st.outbox[:0]
		}
		// Tally progress.
		solvedTotal = 0
		for _, st := range states {
			solvedTotal += st.solved
		}
		e.stats.Supersteps++
	}
	e.stats.VertexSolves = solvedTotal

	// Deterministic reduction, identical to the JSweep solver's.
	phi := e.prob.NewFlux()
	for a := 0; a < na; a++ {
		for p := 0; p < np; p++ {
			st := states[idx(a, p)]
			for g := 0; g < G; g++ {
				dst := phi[g]
				src := st.phi[g]
				for v, c := range st.g.Cells {
					dst[c] += src[v]
				}
			}
		}
	}
	return phi, nil
}

// drain solves every ready vertex of one program (the BSP "compute"
// phase), queuing remote fluxes for the barrier.
func (e *Executor) drain(st *progState, idx func(a, p int) int, q [][]float64) {
	G := e.prob.Groups
	mf := e.prob.MaxFaces()
	a := int(st.g.Angle)
	dir := e.prob.Quad.Directions[a]
	qCell := make([]float64, G)
	psiOut := make([]float64, mf*G)
	psiBar := make([]float64, G)
	for len(st.ready) > 0 {
		v := st.ready[len(st.ready)-1]
		st.ready = st.ready[:len(st.ready)-1]
		c := st.g.Cells[v]
		base := int(v) * mf * G
		for g := 0; g < G; g++ {
			qCell[g] = q[g][c]
		}
		e.prob.SolveCell(c, dir.Omega, qCell, st.psiFace[base:base+mf*G], psiOut, psiBar)
		for g := 0; g < G; g++ {
			st.phi[g][v] += dir.Weight * psiBar[g]
		}
		for _, le := range st.g.LocalEdges(v) {
			dst := (int(le.To)*mf + int(le.Face)) * G
			src := int(le.SrcFace) * G
			copy(st.psiFace[dst:dst+G], psiOut[src:src+G])
			st.counts[le.To]--
			if st.counts[le.To] == 0 {
				st.ready = append(st.ready, le.To)
			}
		}
		for _, re := range st.g.RemoteEdges(v) {
			psi := make([]float64, G)
			copy(psi, psiOut[int(re.SrcFace)*G:int(re.SrcFace)*G+G])
			st.outbox = append(st.outbox, remoteFlux{
				tgtProg: int32(idx(a, int(re.ToPatch))),
				v:       re.To,
				face:    re.Face,
				psi:     psi,
			})
		}
		st.solved++
	}
}

var _ transport.SweepExecutor = (*Executor)(nil)
