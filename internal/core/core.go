// Package core defines the patch-centric data-driven abstraction — the
// primary contribution of the JSweep paper (§III). A patch is extended into
// a logical processing element: a patch-program identified by a
// (patch, task) pair, with five primitive functions and an active/inactive
// state machine. Patch-programs are fully reentrant (partial computation)
// and communicate through routable streams.
//
// The package also provides a sequential Engine implementing the execution
// semantics of Alg. 1 — the reference scheduler the parallel runtime
// (package runtime) must be observationally equivalent to.
package core

import (
	"container/heap"
	"fmt"

	"jsweep/internal/mesh"
)

// TaskTag identifies a task on a patch. For Sn sweeps the task is the
// sweeping angle id (§V-B), so all angles of one patch execute as
// independent patch-programs (patch-angle parallelism).
type TaskTag int32

// ProgramKey identifies a patch-program: task t executed on patch p.
type ProgramKey struct {
	Patch mesh.PatchID
	Task  TaskTag
}

// String renders the key as (patch,task).
func (k ProgramKey) String() string { return fmt.Sprintf("(%d,%d)", k.Patch, k.Task) }

// Stream is the unit of inter-patch-program communication (paper Fig. 6):
// user data plus full source and destination program addressing, which is
// what makes streams routable by the runtime without global coordination.
type Stream struct {
	SrcPatch mesh.PatchID
	SrcTask  TaskTag
	TgtPatch mesh.PatchID
	TgtTask  TaskTag
	// Payload is the user-defined data, already serialized: streams cross
	// process boundaries in packed form.
	Payload []byte
}

// Src returns the source program key.
func (s *Stream) Src() ProgramKey { return ProgramKey{s.SrcPatch, s.SrcTask} }

// Tgt returns the target program key.
func (s *Stream) Tgt() ProgramKey { return ProgramKey{s.TgtPatch, s.TgtTask} }

// PatchProgram is the five-function interface of paper Fig. 6. A program
// must be reentrant: the runtime may call the Input/Compute/Output cycle
// any number of times (partial computation, §III-A1), and all state must
// live in the program's local context between calls.
//
// Payload ownership: a stream's payload is handed over at Output. From then
// on the producer must not read, write, reuse or alias it — in particular
// it must not put the same buffer into two streams — because exactly one
// party down the route recycles it into comm's buffer pool: the target
// program's Input on a route that stays in the process, the runtime right
// after packing it into a message on a route that leaves it (the receiving
// rank then hands the target a pooled copy). Programs that draw payloads
// from comm.GetBuffer and release them in Input with comm.PutBuffer run
// allocation-free; a program that does neither is still correct, its
// payloads are simply garbage collected.
type PatchProgram interface {
	// Init is called exactly once, before the first Input/Compute.
	Init()
	// Input consumes one received stream. The payload belongs to the
	// program from here on: it may keep it, or recycle it with
	// comm.PutBuffer once decoded.
	Input(s Stream)
	// Compute performs (a slice of) the local computation using everything
	// received so far.
	Compute()
	// Output returns the next pending outgoing stream, with ok=false when
	// none remain. The runtime keeps calling until ok=false. The payload
	// leaves with the stream (see above).
	Output() (s Stream, ok bool)
	// VoteToHalt reports whether the program has no ready work left. A
	// halted program is deactivated and re-activated by the next stream.
	VoteToHalt() bool
}

// WorkloadReporter is optionally implemented by programs whose total
// workload is known in advance (paper §III-B: sweeps know the number of
// (cell, angle) computations up front). The runtime uses it for the
// cheap special-case termination detection; programs without it fall back
// to the general distributed protocol.
type WorkloadReporter interface {
	// RemainingWork returns the number of not-yet-finished work items.
	RemainingWork() int64
}

// State is the patch-program state machine state (paper Fig. 7).
type State int8

const (
	// Active programs are scheduled for execution.
	Active State = iota
	// Inactive programs voted to halt and wait for a stream.
	Inactive
)

// EngineStats summarizes a sequential engine run.
type EngineStats struct {
	// Cycles is the number of Alg. 1 executions across all programs.
	Cycles int64
	// Streams is the number of streams delivered.
	Streams int64
	// Bytes is the total payload bytes moved.
	Bytes int64
}

// Engine is the sequential reference scheduler: it executes registered
// patch-programs following exactly the semantics of Alg. 1, picking among
// active programs by priority (highest first, FIFO among equal). It is
// deliberately simple — the parallel runtime is validated against it.
type Engine struct {
	programs map[ProgramKey]*engProg
	// order keeps registration order so Reset reactivates programs with
	// exactly the same deterministic schedule as a fresh engine.
	order []*engProg
	ready engHeap
	seq   int64
	stats EngineStats
}

type engProg struct {
	key   ProgramKey
	prog  PatchProgram
	prio  int64
	seq   int64 // FIFO tie-break
	inbox []Stream
	// inboxFree recycles the previously consumed inbox buffer.
	inboxFree   []Stream
	state       State
	queued      bool
	initialized bool
	index       int // heap index
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{programs: make(map[ProgramKey]*engProg)}
}

// Register adds a patch-program with a scheduling priority. All programs
// start Active (paper §III-A: "at the beginning, each patch-program is set
// active"). Registering a duplicate key is an error.
func (e *Engine) Register(key ProgramKey, prog PatchProgram, prio int64) error {
	if _, dup := e.programs[key]; dup {
		return fmt.Errorf("core: duplicate program %v", key)
	}
	p := &engProg{key: key, prog: prog, prio: prio, state: Active}
	e.programs[key] = p
	e.order = append(e.order, p)
	e.push(p)
	return nil
}

// Reset rearms the engine for another round: every registered program is
// reactivated in registration order (the same deterministic schedule a
// fresh engine would produce), pending inboxes and statistics are
// cleared (the next Run reports that round alone, mirroring
// runtime.Runtime.RunRound), and Run may be called again. Init calls are
// NOT repeated — program-local state between rounds is the caller's
// responsibility, mirroring runtime.Runtime.Reset.
func (e *Engine) Reset() {
	e.stats = EngineStats{}
	e.ready = e.ready[:0]
	for _, p := range e.order {
		p.state = Active
		p.queued = false
		clear(p.inbox)
		p.inbox = p.inbox[:0]
		e.push(p)
	}
}

func (e *Engine) push(p *engProg) {
	if p.queued {
		return
	}
	p.queued = true
	p.seq = e.seq
	e.seq++
	heap.Push(&e.ready, p)
}

// Run executes Alg. 1 on every active program until no program is active —
// the global termination condition of §III-B. It returns statistics and an
// error if a stream targets an unregistered program.
func (e *Engine) Run() (EngineStats, error) {
	for e.ready.Len() > 0 {
		p := heap.Pop(&e.ready).(*engProg)
		p.queued = false
		if p.state != Active {
			continue
		}
		if err := e.cycle(p); err != nil {
			return e.stats, err
		}
	}
	return e.stats, nil
}

// cycle runs one Alg. 1 execution of program p.
func (e *Engine) cycle(p *engProg) error {
	e.stats.Cycles++
	if !p.initialized {
		p.prog.Init()
		p.initialized = true
	}
	// Detach the inbox (self-delivery during Output must land in a fresh
	// buffer) and recycle the consumed one afterwards.
	inbox := p.inbox
	p.inbox = p.inboxFree
	p.inboxFree = nil
	for _, s := range inbox {
		p.prog.Input(s)
	}
	p.prog.Compute()
	for {
		s, ok := p.prog.Output()
		if !ok {
			break
		}
		if err := e.deliver(s); err != nil {
			return err
		}
	}
	clear(inbox)
	if p.inboxFree == nil {
		p.inboxFree = inbox[:0]
	}
	if p.prog.VoteToHalt() && len(p.inbox) == 0 {
		p.state = Inactive
	} else {
		p.state = Active
		e.push(p)
	}
	return nil
}

// deliver routes a stream to its target program, activating it.
func (e *Engine) deliver(s Stream) error {
	tgt, ok := e.programs[s.Tgt()]
	if !ok {
		return fmt.Errorf("core: stream %v -> %v targets unregistered program", s.Src(), s.Tgt())
	}
	e.stats.Streams++
	e.stats.Bytes += int64(len(s.Payload))
	tgt.inbox = append(tgt.inbox, s)
	tgt.state = Active
	e.push(tgt)
	return nil
}

// RemainingWork sums the remaining work of all registered programs that
// report it.
func (e *Engine) RemainingWork() int64 {
	var total int64
	for _, p := range e.programs {
		if r, ok := p.prog.(WorkloadReporter); ok {
			total += r.RemainingWork()
		}
	}
	return total
}

// engHeap is a max-heap on (prio, -seq).
type engHeap []*engProg

func (h engHeap) Len() int { return len(h) }
func (h engHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h engHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *engHeap) Push(x interface{}) {
	p := x.(*engProg)
	p.index = len(*h)
	*h = append(*h, p)
}
func (h *engHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}
