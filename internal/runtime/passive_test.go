package runtime

import (
	"sync"
	"testing"
	"time"

	"jsweep/internal/comm"
	"jsweep/internal/core"
)

// pendingHookTransport wraps a transport so a test can run code inside the
// master's passive() check, at the point where it asks the endpoint for
// queued messages.
type pendingHookTransport struct {
	comm.Transport
	hook func()
}

func (t *pendingHookTransport) Endpoint(rank int) comm.Endpoint {
	return &pendingHookEndpoint{Endpoint: t.Transport.Endpoint(rank), t: t}
}

type pendingHookEndpoint struct {
	comm.Endpoint
	t *pendingHookTransport
}

func (e *pendingHookEndpoint) Pending() int {
	if e.t.hook != nil {
		e.t.hook()
	}
	return e.Endpoint.Pending()
}

// gatedSource sends one stream to peer; its first Output announces itself
// on entered and then blocks until gate is closed.
type gatedSource struct {
	key, peer     core.ProgramKey
	entered, gate chan struct{}
	state         int // 0 not computed, 1 stream pending, 2 stream handed over
}

func (g *gatedSource) Init()               {}
func (g *gatedSource) Input(s core.Stream) {}
func (g *gatedSource) VoteToHalt() bool    { return true }
func (g *gatedSource) Compute() {
	if g.state == 0 {
		g.state = 1
	}
}

func (g *gatedSource) Output() (core.Stream, bool) {
	if g.state != 1 {
		return core.Stream{}, false
	}
	g.state = 2
	close(g.entered)
	<-g.gate
	return core.Stream{
		SrcPatch: g.key.Patch, SrcTask: g.key.Task,
		TgtPatch: g.peer.Patch, TgtTask: g.peer.Task,
		Payload: append(comm.GetBuffer(1), 7),
	}, true
}

// countingSink counts and releases what it receives.
type countingSink struct{ received int }

func (c *countingSink) Init()                       {}
func (c *countingSink) Compute()                    {}
func (c *countingSink) Output() (core.Stream, bool) { return core.Stream{}, false }
func (c *countingSink) VoteToHalt() bool            { return true }
func (c *countingSink) Input(s core.Stream) {
	c.received++
	comm.PutBuffer(s.Payload)
}

// TestPassiveSeesResultSentDuringCheck pins passive()'s view of a worker
// that finishes its cycle in the middle of the check (the endpoint's
// Pending is the hook): the worker queues its output and stops counting as
// busy in one critical section, and passive() reads both under one lock,
// so it sees the busy worker or the output to route — never neither, which
// would end a single-rank Safra round with the stream never routed.
func TestPassiveSeesResultSentDuringCheck(t *testing.T) {
	mem, err := comm.NewTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &pendingHookTransport{Transport: mem}
	rt, err := New(Config{Procs: 1, Workers: 1, Termination: Safra, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	src := &gatedSource{
		key: core.ProgramKey{Patch: 0}, peer: core.ProgramKey{Patch: 1},
		entered: make(chan struct{}), gate: make(chan struct{}),
	}
	sink := &countingSink{}
	// The sink runs (and halts) first, so the blocked source is the only
	// work left when the hook fires.
	if err := rt.Register(src.peer, sink, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(src.key, src, 0, 0); err != nil {
		t.Fatal(err)
	}

	p := rt.byRank[0]
	var once sync.Once
	tr.hook = func() {
		select {
		case <-src.entered:
		default:
			return
		}
		once.Do(func() {
			close(src.gate)
			for {
				p.mu.Lock()
				busy := p.busyWorkers
				p.mu.Unlock()
				if busy == 0 {
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		})
	}

	runRoundTimeout(t, rt)
	if sink.received != 1 {
		t.Fatalf("round terminated with the stream unrouted: sink received %d streams, want 1", sink.received)
	}
}
