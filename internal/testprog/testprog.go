// Package testprog provides small deterministic patch-programs used to
// validate the execution semantics of the core engine and the parallel
// runtime against each other: a DAG accumulator (each program sums inputs
// and forwards) and a ping-pong chain reproducing the zig-zag partial
// computation scenario of paper Fig. 4.
package testprog

import (
	"encoding/binary"
	"sync"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/mesh"
)

// Results collects program outcomes across concurrent executions.
type Results struct {
	mu sync.Mutex
	m  map[core.ProgramKey]int64
}

// NewResults returns an empty result sink.
func NewResults() *Results { return &Results{m: make(map[core.ProgramKey]int64)} }

// Set records the outcome of a program.
func (r *Results) Set(k core.ProgramKey, v int64) {
	r.mu.Lock()
	r.m[k] = v
	r.mu.Unlock()
}

// Get returns the recorded outcome.
func (r *Results) Get(k core.ProgramKey) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	return v, ok
}

// Len returns the number of recorded outcomes.
func (r *Results) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// payload encodes v into a fresh pooled buffer — one per stream, never
// shared: a payload is handed over at Output (core.PatchProgram).
func payload(v int64) []byte {
	return binary.LittleEndian.AppendUint64(comm.GetBuffer(8), uint64(v))
}

// consume decodes a received payload and, being its owner now, recycles it.
func consume(b []byte) int64 {
	v := int64(binary.LittleEndian.Uint64(b))
	comm.PutBuffer(b)
	return v
}

// Accumulator is a patch-program node of a program-level DAG: it waits for
// one value from each upwind program, then emits seed + sum(inputs) to all
// downwind programs and records the value. Work = 1 until computed.
type Accumulator struct {
	Key      core.ProgramKey
	Seed     int64
	NumIn    int
	Out      []core.ProgramKey
	Sink     *Results
	InitSeen int

	got      int
	sum      int64
	computed bool
	pending  comm.Ring[core.Stream]
}

// Init implements core.PatchProgram.
func (a *Accumulator) Init() { a.InitSeen++ }

// Reset returns the accumulator to its pre-run state so a persistent
// runtime session can execute it again (Init is not called twice).
func (a *Accumulator) Reset() {
	a.got = 0
	a.sum = 0
	a.computed = false
	a.pending = comm.Ring[core.Stream]{}
}

// Input implements core.PatchProgram.
func (a *Accumulator) Input(s core.Stream) {
	a.sum += consume(s.Payload)
	a.got++
}

// Compute implements core.PatchProgram.
func (a *Accumulator) Compute() {
	if a.computed || a.got < a.NumIn {
		return
	}
	a.computed = true
	v := a.Seed + a.sum
	a.Sink.Set(a.Key, v)
	for _, tgt := range a.Out {
		a.pending.Push(core.Stream{
			SrcPatch: a.Key.Patch, SrcTask: a.Key.Task,
			TgtPatch: tgt.Patch, TgtTask: tgt.Task,
			Payload: payload(v),
		})
	}
}

// Output implements core.PatchProgram.
func (a *Accumulator) Output() (core.Stream, bool) { return a.pending.Pop() }

// VoteToHalt implements core.PatchProgram.
func (a *Accumulator) VoteToHalt() bool { return true }

// RemainingWork implements core.WorkloadReporter.
func (a *Accumulator) RemainingWork() int64 {
	if a.computed {
		return 0
	}
	return 1
}

// PingPong is one side of the Fig. 4 zig-zag: two programs exchange a
// counter Rounds times; each needs the other's previous value to proceed,
// so neither can run to completion in one activation — the reentrancy
// (partial computation) test. The program with Starter=true emits round 0
// unprompted.
type PingPong struct {
	Key     core.ProgramKey
	Peer    core.ProgramKey
	Rounds  int
	Starter bool
	Sink    *Results

	sent     int
	received int
	haveBall bool
	ball     int64
	pending  comm.Ring[core.Stream]
}

// Init implements core.PatchProgram.
func (p *PingPong) Init() {
	if p.Starter {
		p.haveBall = true
		p.ball = 0
	}
}

// Reset returns the program to its initial state for another session
// round; the starter holds the ball again.
func (p *PingPong) Reset() {
	p.sent = 0
	p.received = 0
	p.ball = 0
	p.haveBall = p.Starter
	p.pending = comm.Ring[core.Stream]{}
}

// Input implements core.PatchProgram.
func (p *PingPong) Input(s core.Stream) {
	p.haveBall = true
	p.ball = consume(s.Payload)
	p.received++
}

// Compute implements core.PatchProgram.
func (p *PingPong) Compute() {
	if !p.haveBall || p.sent >= p.Rounds {
		return
	}
	v := p.ball // ball value seen at this hit
	p.haveBall = false
	p.sent++
	done := p.sent == p.Rounds
	if done {
		p.Sink.Set(p.Key, v)
	}
	// Forward the incremented ball — the starter even on its last hit, so
	// the peer can complete its final round; the non-starter's last hit
	// ends the game.
	if !done || p.Starter {
		p.pending.Push(core.Stream{
			SrcPatch: p.Key.Patch, SrcTask: p.Key.Task,
			TgtPatch: p.Peer.Patch, TgtTask: p.Peer.Task,
			Payload: payload(v + 1),
		})
	}
}

// Output implements core.PatchProgram.
func (p *PingPong) Output() (core.Stream, bool) { return p.pending.Pop() }

// VoteToHalt implements core.PatchProgram.
func (p *PingPong) VoteToHalt() bool { return !p.haveBall || p.sent >= p.Rounds }

// RemainingWork implements core.WorkloadReporter.
func (p *PingPong) RemainingWork() int64 { return int64(p.Rounds - p.sent) }

// GridSpec describes a W×H grid of accumulator programs with edges right
// and down — a miniature sweep-shaped DAG with known results.
type GridSpec struct {
	W, H int
}

// Key returns the program key of grid node (x, y).
func (g GridSpec) Key(x, y int) core.ProgramKey {
	return core.ProgramKey{Patch: mesh.PatchID(x + g.W*y), Task: 0}
}

// Build creates the grid's accumulators (seed = 1 each), returning them in
// row-major order together with the sink.
func (g GridSpec) Build() ([]*Accumulator, *Results) {
	sink := NewResults()
	progs := make([]*Accumulator, 0, g.W*g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			a := &Accumulator{Key: g.Key(x, y), Seed: 1, Sink: sink}
			if x > 0 {
				a.NumIn++
			}
			if y > 0 {
				a.NumIn++
			}
			if x < g.W-1 {
				a.Out = append(a.Out, g.Key(x+1, y))
			}
			if y < g.H-1 {
				a.Out = append(a.Out, g.Key(x, y+1))
			}
			progs = append(progs, a)
		}
	}
	return progs, sink
}

// Want returns the expected accumulator value at (x, y): these are the
// Delannoy-like path-count sums, computed by dynamic programming.
func (g GridSpec) Want() map[core.ProgramKey]int64 {
	vals := make([]int64, g.W*g.H)
	want := make(map[core.ProgramKey]int64, g.W*g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			v := int64(1)
			if x > 0 {
				v += vals[(x-1)+g.W*y]
			}
			if y > 0 {
				v += vals[x+g.W*(y-1)]
			}
			vals[x+g.W*y] = v
			want[g.Key(x, y)] = v
		}
	}
	return want
}
