// Package comm is the message-passing substrate standing in for MPI
// (DESIGN.md substitution #1). A Transport connects a fixed number of
// ranked endpoints; endpoints exchange opaque byte messages with
// per-endpoint unbounded inboxes (no send can deadlock against a busy
// receiver, matching buffered MPI_Isend semantics). Delivery between a
// given pair of ranks is in order.
//
// Transport and Endpoint are interfaces with two backends: the in-memory
// MemTransport of this package (all ranks are goroutines of one OS
// process) and the TCP backend of internal/netcomm (one OS process per
// rank, length-prefixed frames over per-peer connections). The runtime
// above this package never shares memory across ranks: all inter-process
// data crosses as serialized bytes, so the two backends are
// interchangeable for every caller.
//
// Each endpoint pair carries two independently ordered lanes: the data
// lane (Send/TryRecv) used by the runtime's master loops, and an
// out-of-band lane (SendOOB/RecvOOB) used by the collectives of
// Collective. Splitting the lanes lets a barrier or allgather run at a
// round boundary without consuming — or being blocked behind — early
// next-round data messages.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed transport once any
// queued messages have been drained.
var ErrClosed = errors.New("comm: transport closed")

// Message is a received message with its source rank.
type Message struct {
	From int
	Data []byte
}

// Endpoint is one rank's attachment to a transport.
//
// Send must never block against a busy receiver (unbounded inboxes) and
// delivery between a given pair of ranks is in order per lane. The data
// slice is handed over on Send; the caller must not modify it afterwards
// (it crossed the "wire").
type Endpoint interface {
	// Rank returns this endpoint's rank.
	Rank() int
	// Send delivers data on the data lane. Sending to self is allowed.
	// After the transport is closed (or has failed), Send errors out
	// instead of racing the teardown.
	Send(to int, data []byte) error
	// SendOOB delivers data on the out-of-band lane.
	SendOOB(to int, data []byte) error
	// TryRecv returns the next pending data-lane message without blocking.
	// Messages already delivered remain receivable after Close (receivers
	// drain, then unblock).
	TryRecv() (Message, bool)
	// RecvOOB blocks for the next out-of-band message. After Close it
	// drains any queued messages, then returns ErrClosed (or the
	// transport's failure).
	RecvOOB() (Message, error)
	// Notify returns a channel that receives a token after data-lane
	// arrivals; it lets a receiver select over the transport and other
	// event sources. A token may coalesce several arrivals — drain with
	// TryRecv.
	Notify() <-chan struct{}
	// Err returns the transport's terminal state: nil while healthy,
	// ErrClosed after Close, or the first failure of a fail-fast
	// backend. It lets a receiver that only ever waits (TryRecv/Notify
	// never error) observe a dead transport instead of spinning forever.
	Err() error
	// Pending returns the number of queued data-lane messages.
	Pending() int
	// Counters returns (sent, received, bytesOut, bytesIn) message/payload
	// totals over both lanes. Sent/received counts feed Safra's
	// termination algorithm.
	Counters() (sent, received, bytesOut, bytesIn int64)
}

// Transport is an interconnect between NumRanks ranked endpoints. A
// backend may host all ranks in one process (MemTransport) or a single
// rank of a multi-process cluster (netcomm): LocalRanks lists the ranks
// whose endpoints live here.
type Transport interface {
	// NumRanks returns the global number of endpoints.
	NumRanks() int
	// LocalRanks returns the ranks hosted by this transport instance, in
	// ascending order.
	LocalRanks() []int
	// Endpoint returns the endpoint of a locally hosted rank, or nil for
	// a rank hosted elsewhere.
	Endpoint(rank int) Endpoint
	// Close shuts the transport down: in-flight sends drain, subsequent
	// sends error with ErrClosed, and blocked receivers drain their
	// queues and then unblock. Close is idempotent.
	Close() error
}

// MemTransport is the in-process backend: all ranks are goroutines of one
// OS process and "the wire" is a mutex-guarded queue.
type MemTransport struct {
	endpoints []*MemEndpoint
	closed    atomic.Bool
	local     []int
}

// NewTransport creates an in-memory transport with n ranks.
func NewTransport(n int) (*MemTransport, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: need >= 1 rank (got %d)", n)
	}
	t := &MemTransport{endpoints: make([]*MemEndpoint, n), local: make([]int, n)}
	for r := 0; r < n; r++ {
		e := &MemEndpoint{rank: r, transport: t, notify: make(chan struct{}, 1)}
		e.oobCond = sync.NewCond(&e.mu)
		t.endpoints[r] = e
		t.local[r] = r
	}
	return t, nil
}

// NumRanks returns the number of endpoints.
func (t *MemTransport) NumRanks() int { return len(t.endpoints) }

// LocalRanks returns all ranks: the in-memory backend hosts every rank.
func (t *MemTransport) LocalRanks() []int { return t.local }

// Endpoint returns the endpoint of a rank.
func (t *MemTransport) Endpoint(rank int) Endpoint {
	if rank < 0 || rank >= len(t.endpoints) {
		return nil
	}
	return t.endpoints[rank]
}

// Close marks the transport closed: subsequent sends error with
// ErrClosed; receivers blocked in RecvOOB drain their queues and then
// unblock with ErrClosed. Idempotent.
func (t *MemTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, e := range t.endpoints {
		e.mu.Lock()
		e.oobCond.Broadcast()
		e.mu.Unlock()
		select {
		case e.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// MemEndpoint is one rank's attachment to a MemTransport.
type MemEndpoint struct {
	rank      int
	transport *MemTransport

	mu       sync.Mutex
	oobCond  *sync.Cond
	queue    Ring[Message]
	oobQueue Ring[Message]
	notify   chan struct{}

	sent     atomic.Int64
	received atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// Rank returns this endpoint's rank.
func (e *MemEndpoint) Rank() int { return e.rank }

// deliver appends a message to the destination queue of the given lane.
func (e *MemEndpoint) deliver(to int, data []byte, oob bool) error {
	if to < 0 || to >= len(e.transport.endpoints) {
		return fmt.Errorf("comm: rank %d sent to invalid rank %d", e.rank, to)
	}
	dst := e.transport.endpoints[to]
	dst.mu.Lock()
	// The closed check must run under the destination lock: Close swaps
	// the flag before broadcasting under each endpoint's lock, so a send
	// observing closed=false here is ordered before the receiver's
	// drain-then-unblock — the message can never be silently stranded.
	if e.transport.closed.Load() {
		dst.mu.Unlock()
		return fmt.Errorf("comm: rank %d send to %d: %w", e.rank, to, ErrClosed)
	}
	e.sent.Add(1)
	e.bytesOut.Add(int64(len(data)))
	if oob {
		dst.oobQueue.Push(Message{From: e.rank, Data: data})
		dst.oobCond.Signal()
	} else {
		dst.queue.Push(Message{From: e.rank, Data: data})
	}
	dst.mu.Unlock()
	if !oob {
		select {
		case dst.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// Send delivers data to the endpoint of rank `to` on the data lane. The
// data slice is handed over; the caller must not modify it afterwards (it
// crossed the "wire"). Sending to self is allowed.
func (e *MemEndpoint) Send(to int, data []byte) error { return e.deliver(to, data, false) }

// SendOOB delivers data on the out-of-band (collective) lane.
func (e *MemEndpoint) SendOOB(to int, data []byte) error { return e.deliver(to, data, true) }

// Notify returns a channel that receives a token after message arrivals;
// it lets a receiver select over the transport and other event sources.
// A token may coalesce several arrivals — drain with TryRecv.
func (e *MemEndpoint) Notify() <-chan struct{} { return e.notify }

// TryRecv returns the next pending data-lane message without blocking.
func (e *MemEndpoint) TryRecv() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.queue.Pop()
	if !ok {
		return Message{}, false
	}
	e.received.Add(1)
	e.bytesIn.Add(int64(len(m.Data)))
	return m, true
}

// RecvOOB blocks for the next out-of-band message. After Close it drains
// the remaining queue and then returns ErrClosed.
func (e *MemEndpoint) RecvOOB() (Message, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.oobQueue.Len() == 0 {
		if e.transport.closed.Load() {
			return Message{}, ErrClosed
		}
		e.oobCond.Wait()
	}
	m, _ := e.oobQueue.Pop()
	e.received.Add(1)
	e.bytesIn.Add(int64(len(m.Data)))
	return m, nil
}

// Err returns ErrClosed once the transport is closed, nil before.
func (e *MemEndpoint) Err() error {
	if e.transport.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Pending returns the number of queued data-lane messages.
func (e *MemEndpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queue.Len()
}

// Counters returns (sent, received, bytesOut, bytesIn) for this endpoint.
// Sent/received counts feed Safra's termination algorithm.
func (e *MemEndpoint) Counters() (sent, received, bytesOut, bytesIn int64) {
	return e.sent.Load(), e.received.Load(), e.bytesOut.Load(), e.bytesIn.Load()
}

var (
	_ Transport = (*MemTransport)(nil)
	_ Endpoint  = (*MemEndpoint)(nil)
)
