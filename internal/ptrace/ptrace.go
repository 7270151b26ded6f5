// Package ptrace implements the particle-trace component the paper's
// conclusions name as the second data-driven algorithm built on the
// patch-centric abstraction (§VIII): particles ray-march through the mesh,
// each patch-program advances the particles currently inside its patch,
// and particles crossing a patch boundary are streamed to the neighbour's
// program. Track lengths are tallied per cell (the standard track-length
// estimator).
//
// Unlike sweeps, the total workload is not known in advance (a particle's
// path depends on where it flies), so the runtime's general Safra
// termination detector is exercised instead of workload counters.
package ptrace

import (
	"encoding/binary"
	"fmt"
	"math"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/geom"
	"jsweep/internal/mesh"
	"jsweep/internal/runtime"
)

// Particle is one traced particle.
type Particle struct {
	// ID identifies the particle (stable across hops).
	ID int32
	// Cell is the mesh cell currently containing the particle.
	Cell mesh.CellID
	// Pos and Dir are the position and (unit) flight direction.
	Pos, Dir geom.Vec3
	// Remaining is the path length left to fly.
	Remaining float64
	// Weight scales the particle's tally contributions.
	Weight float64
}

// facePointer is the extra geometry ray tracing needs beyond mesh.Mesh;
// both mesh implementations provide it.
type facePointer interface {
	FacePoint(c mesh.CellID, i int) geom.Vec3
}

// stepEps is the relative nudge applied when crossing a face, avoiding
// re-intersection with the plane just crossed.
const stepEps = 1e-12

// Step advances a particle to the boundary of its current cell (or to the
// end of its path). It returns the path length flown inside the cell and
// the face index crossed (-1 when the particle dies inside the cell).
func Step(m mesh.Mesh, p *Particle) (flown float64, face int) {
	fp, ok := m.(facePointer)
	if !ok {
		panic("ptrace: mesh does not expose face points")
	}
	best := math.Inf(1)
	bestFace := -1
	nf := m.NumFaces(p.Cell)
	for f := 0; f < nf; f++ {
		fc := m.Face(p.Cell, f)
		denom := p.Dir.Dot(fc.Normal)
		if denom <= mesh.UpwindEps {
			continue // moving away from or parallel to this face
		}
		t := fp.FacePoint(p.Cell, f).Sub(p.Pos).Dot(fc.Normal) / denom
		if t < 0 {
			t = 0 // numerical: already on the plane
		}
		if t < best {
			best = t
			bestFace = f
		}
	}
	if bestFace == -1 {
		// Degenerate geometry: die in place.
		flown = p.Remaining
		p.Remaining = 0
		return flown, -1
	}
	if best >= p.Remaining {
		// Path ends inside this cell.
		flown = p.Remaining
		p.Pos = p.Pos.Add(p.Dir.Scale(flown))
		p.Remaining = 0
		return flown, -1
	}
	flown = best
	nudge := best * stepEps
	if nudge < 1e-15 {
		nudge = 1e-15
	}
	p.Pos = p.Pos.Add(p.Dir.Scale(best + nudge))
	p.Remaining -= flown
	return flown, bestFace
}

// particleWire is the stream payload encoding:
//
//	count:u32 { id:i32 cell:i32 pos:3×f64 dir:3×f64 remaining:f64 weight:f64 }*
const particleBytes = 4 + 4 + 8*8

func encodeParticles(ps []Particle) []byte {
	// A fresh pooled buffer per stream: the payload is handed over at
	// Output, and the receiving program's Input recycles it.
	buf := comm.GetBuffer(4 + len(ps)*particleBytes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ps)))
	for i := range ps {
		p := &ps[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Cell))
		for _, v := range []float64{p.Pos.X, p.Pos.Y, p.Pos.Z, p.Dir.X, p.Dir.Y, p.Dir.Z, p.Remaining, p.Weight} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

func decodeParticles(buf []byte) ([]Particle, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("ptrace: truncated particle payload")
	}
	n := binary.LittleEndian.Uint32(buf)
	if len(buf)-4 != int(n)*particleBytes {
		return nil, fmt.Errorf("ptrace: payload size %d != %d particles", len(buf)-4, n)
	}
	out := make([]Particle, n)
	off := 4
	rd := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		return v
	}
	for i := range out {
		out[i].ID = int32(binary.LittleEndian.Uint32(buf[off:]))
		out[i].Cell = mesh.CellID(int32(binary.LittleEndian.Uint32(buf[off+4:])))
		off += 8
		out[i].Pos = geom.Vec3{X: rd(), Y: rd(), Z: rd()}
		out[i].Dir = geom.Vec3{X: rd(), Y: rd(), Z: rd()}
		out[i].Remaining = rd()
		out[i].Weight = rd()
	}
	return out, nil
}

// Program is the particle-trace patch-program: task 0 on every patch.
type Program struct {
	d     *mesh.Decomposition
	patch mesh.PatchID

	queue []Particle
	// Tally accumulates weight·track-length per local cell.
	tally []float64
	// Leaked sums the weight·remaining-path of particles that left the
	// domain through the patch boundary.
	leaked  float64
	pending comm.Ring[core.Stream]

	// Traced counts particles processed by this program (diagnostics).
	Traced int64
}

// NewProgram builds the trace program of one patch with its initial
// particles (each must start inside the patch).
func NewProgram(d *mesh.Decomposition, patch mesh.PatchID, initial []Particle) *Program {
	return &Program{
		d:     d,
		patch: patch,
		queue: append([]Particle(nil), initial...),
		tally: make([]float64, len(d.Cells[patch])),
	}
}

// Key returns the program's (patch, 0) key.
func (p *Program) Key() core.ProgramKey {
	return core.ProgramKey{Patch: p.patch, Task: 0}
}

// Tally exposes the per-local-cell track-length tallies.
func (p *Program) Tally() []float64 { return p.tally }

// Leaked returns the weighted path length lost through the domain
// boundary.
func (p *Program) Leaked() float64 { return p.leaked }

// Init implements core.PatchProgram.
func (p *Program) Init() {}

// Input implements core.PatchProgram: receive immigrating particles.
func (p *Program) Input(s core.Stream) {
	ps, err := decodeParticles(s.Payload)
	if err != nil {
		panic(err)
	}
	p.queue = append(p.queue, ps...)
	// Decoded into ps and ours since the sender's Output: recycle it.
	comm.PutBuffer(s.Payload)
}

// Compute implements core.PatchProgram: trace every queued particle until
// it dies or leaves the patch.
func (p *Program) Compute() {
	if len(p.queue) == 0 {
		return
	}
	m := p.d.Mesh
	emigrants := map[mesh.PatchID][]Particle{}
	for len(p.queue) > 0 {
		part := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.Traced++
		for part.Remaining > 0 {
			if p.d.CellPatch[part.Cell] != p.patch {
				panic(fmt.Sprintf("ptrace: particle %d in cell %d owned by patch %d, traced by %d",
					part.ID, part.Cell, p.d.CellPatch[part.Cell], p.patch))
			}
			local := p.d.Local[part.Cell]
			flown, face := Step(m, &part)
			p.tally[local] += part.Weight * flown
			if face < 0 {
				break // died in the cell
			}
			nb := m.Face(part.Cell, face).Neighbor
			if nb < 0 {
				// Left the domain.
				p.leaked += part.Weight * part.Remaining
				part.Remaining = 0
				break
			}
			part.Cell = nb
			if tgt := p.d.CellPatch[nb]; tgt != p.patch {
				emigrants[tgt] = append(emigrants[tgt], part)
				break
			}
		}
	}
	// One aggregated stream per destination patch (deterministic order).
	for tgt := mesh.PatchID(0); int(tgt) < p.d.NumPatches(); tgt++ {
		ps, ok := emigrants[tgt]
		if !ok {
			continue
		}
		p.pending.Push(core.Stream{
			SrcPatch: p.patch, SrcTask: 0,
			TgtPatch: tgt, TgtTask: 0,
			Payload: encodeParticles(ps),
		})
	}
}

// Output implements core.PatchProgram.
func (p *Program) Output() (core.Stream, bool) { return p.pending.Pop() }

// VoteToHalt implements core.PatchProgram.
func (p *Program) VoteToHalt() bool { return len(p.queue) == 0 }

var _ core.PatchProgram = (*Program)(nil)

// Result of a particle-trace run.
type Result struct {
	// Tally is the weight·track-length per mesh cell.
	Tally []float64
	// Leaked is the weighted path length that left the domain.
	Leaked float64
	// TotalTracked is Σ weight·(initial path − remaining): with no
	// absorption it equals Σ tally + leaked.
	TotalTracked float64
}

// Trace runs a particle trace over a decomposition on the parallel
// runtime (procs × workers; Safra termination, since the workload is not
// known in advance). Initial particles must carry a valid Cell.
func Trace(d *mesh.Decomposition, particles []Particle, procs, workers int) (*Result, error) {
	if err := validate(d, particles); err != nil {
		return nil, err
	}
	rt, err := runtime.New(runtime.Config{Procs: procs, Workers: workers, Termination: runtime.Safra})
	if err != nil {
		return nil, err
	}
	d.Place(procs)
	progs := make([]*Program, d.NumPatches())
	byPatch := make([][]Particle, d.NumPatches())
	var total float64
	for _, pt := range particles {
		p := d.CellPatch[pt.Cell]
		byPatch[p] = append(byPatch[p], pt)
		total += pt.Weight * pt.Remaining
	}
	for p := range progs {
		progs[p] = NewProgram(d, mesh.PatchID(p), byPatch[p])
		if err := rt.Register(progs[p].Key(), progs[p], 0, d.Owner[p]); err != nil {
			return nil, err
		}
	}
	if _, err := rt.Run(); err != nil {
		return nil, err
	}
	return reduce(d, progs, total), nil
}

// TraceSequential runs the same trace on the sequential engine (the
// validation reference).
func TraceSequential(d *mesh.Decomposition, particles []Particle) (*Result, error) {
	if err := validate(d, particles); err != nil {
		return nil, err
	}
	eng := core.NewEngine()
	progs := make([]*Program, d.NumPatches())
	byPatch := make([][]Particle, d.NumPatches())
	var total float64
	for _, pt := range particles {
		p := d.CellPatch[pt.Cell]
		byPatch[p] = append(byPatch[p], pt)
		total += pt.Weight * pt.Remaining
	}
	for p := range progs {
		progs[p] = NewProgram(d, mesh.PatchID(p), byPatch[p])
		if err := eng.Register(progs[p].Key(), progs[p], 0); err != nil {
			return nil, err
		}
	}
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	return reduce(d, progs, total), nil
}

func validate(d *mesh.Decomposition, particles []Particle) error {
	nc := d.Mesh.NumCells()
	for i, pt := range particles {
		if pt.Cell < 0 || int(pt.Cell) >= nc {
			return fmt.Errorf("ptrace: particle %d starts in invalid cell %d", i, pt.Cell)
		}
		if pt.Remaining < 0 || pt.Weight < 0 {
			return fmt.Errorf("ptrace: particle %d has negative path or weight", i)
		}
	}
	return nil
}

func reduce(d *mesh.Decomposition, progs []*Program, total float64) *Result {
	res := &Result{Tally: make([]float64, d.Mesh.NumCells()), TotalTracked: total}
	for p, prog := range progs {
		for v, c := range d.Cells[p] {
			res.Tally[c] += prog.Tally()[v]
		}
		res.Leaked += prog.Leaked()
	}
	return res
}

// SourceParticles generates n deterministic particles starting at the
// centroid of the given cell, with quasi-random directions from a
// low-discrepancy lattice (no RNG, so runs are reproducible everywhere).
func SourceParticles(m mesh.Mesh, cell mesh.CellID, n int, pathLength float64) []Particle {
	out := make([]Particle, n)
	ctr := m.CellCenter(cell)
	const g1 = 0.6180339887498949 // 1/φ
	const g2 = 0.7548776662466927 // plastic-number lattice
	for i := range out {
		u := math.Mod(float64(i+1)*g1, 1)
		v := math.Mod(float64(i+1)*g2, 1)
		z := 2*u - 1
		phi := 2 * math.Pi * v
		s := math.Sqrt(1 - z*z)
		out[i] = Particle{
			ID:        int32(i),
			Cell:      cell,
			Pos:       ctr,
			Dir:       geom.Vec3{X: s * math.Cos(phi), Y: s * math.Sin(phi), Z: z},
			Remaining: pathLength,
			Weight:    1,
		}
	}
	return out
}
