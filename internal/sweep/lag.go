package sweep

import (
	"jsweep/internal/graph"
)

// LagStore holds the lagged angular fluxes that break cyclic sweep
// dependencies (Vermaak, Ragusa & Morel, arXiv:2004.01824): one slot per
// (angle, feedback edge, group). During a sweep, programs read a lagged
// edge's flux from the *old* half (the value its source cell produced in
// the previous source iteration; zero before the first) and write the
// freshly computed flux into the *new* half. Advance swaps the halves
// between sweeps, which is what folds the cycle-breaking into the existing
// source-iteration fixed point: lagged edges converge together with the
// scattering source.
//
// Each slot has exactly one writer per sweep (the program owning the
// edge's source cell) and its readers only touch the other half, so the
// store needs no locking.
type LagStore struct {
	groups int
	// offs[a] is angle a's first edge slot; offs[len] the total edge count.
	offs     []int32
	old, new []float64
}

// NewLagStore builds the store for the per-angle lagged-edge lists, or
// returns nil when no angle has lagged edges (the acyclic fast path).
func NewLagStore(lagged [][]graph.CellEdge, groups int) *LagStore {
	total := 0
	offs := make([]int32, len(lagged)+1)
	for a, edges := range lagged {
		offs[a] = int32(total)
		total += len(edges)
	}
	offs[len(lagged)] = int32(total)
	if total == 0 {
		return nil
	}
	return &LagStore{
		groups: groups,
		offs:   offs,
		old:    make([]float64, total*groups),
		new:    make([]float64, total*groups),
	}
}

// Total returns the lagged-edge slot count across all angles.
func (ls *LagStore) Total() int { return int(ls.offs[len(ls.offs)-1]) }

// Reset zeroes both halves, returning the store to its pre-first-sweep
// state (all lagged inputs zero). A solver reused across solves calls it
// so the next source iteration starts from the same state as a fresh one.
func (ls *LagStore) Reset() {
	clear(ls.old)
	clear(ls.new)
}

// Advance swaps the halves: the fluxes written during the last sweep
// become the lagged inputs of the next one. Call once per sweep, before
// any program reads the store. Every slot is rewritten each sweep (each
// feedback edge's source cell solves exactly once), so the stale half
// needs no zeroing.
func (ls *LagStore) Advance() { ls.old, ls.new = ls.new, ls.old }

// NewSlot returns the new-half flux of the flat slot id (len = groups).
// The distributed solver uses it to export locally written slots and to
// import the slots other ranks wrote, between the sweep and the next
// Advance.
func (ls *LagStore) NewSlot(slot int32) []float64 {
	base := int(slot) * ls.groups
	return ls.new[base : base+ls.groups]
}

// Old returns angle a's lagged flux of edge slot idx (len = groups).
func (ls *LagStore) Old(a int32, idx int32) []float64 {
	base := (int(ls.offs[a]) + int(idx)) * ls.groups
	return ls.old[base : base+ls.groups]
}

// StoreNew records the freshly computed flux of angle a's edge slot idx
// for the next sweep.
func (ls *LagStore) StoreNew(a int32, idx int32, psi []float64) {
	base := (int(ls.offs[a]) + int(idx)) * ls.groups
	copy(ls.new[base:base+ls.groups], psi)
}

// lagOutStarts indexes g.LagOut by local vertex, CSR style: vertex v's
// lagged out-edges are g.LagOut[starts[v]:starts[v+1]]. The list is built
// in ascending vertex order, so counting suffices. Nil when g has no lagged
// out-edges (every acyclic mesh).
func lagOutStarts(g *graph.PatchGraph) []int32 {
	if len(g.LagOut) == 0 {
		return nil
	}
	starts := make([]int32, g.NumVertices()+1)
	for _, lo := range g.LagOut {
		starts[lo.V+1]++
	}
	for v := 0; v < g.NumVertices(); v++ {
		starts[v+1] += starts[v]
	}
	return starts
}
