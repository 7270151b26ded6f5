// Package netcomm is the socket backend of the comm transport contract:
// one OS process per rank, length-prefixed versioned frames (wire.go)
// over one persistent connection per peer pair. Ranks find each other
// through a rendezvous service (rendezvous.go), establish a full mesh,
// and then exchange comm messages with the same semantics the in-memory
// backend provides — ordered pairwise delivery per lane, non-blocking
// sends, unbounded inboxes — so the patch-centric runtime runs across OS
// process boundaries unchanged.
//
// Each pair's physical wire is chosen at mesh build time, best tier
// first: co-located ranks upgrade to a mmap'd shared-memory ring pair
// (shmring.go — two memcpys and zero syscalls per frame) or, failing
// that, connect over a Unix-domain socket — skipping TCP framing and
// loopback queueing — while remote pairs keep TCP. All three wires
// speak the identical frame protocol; see rendezvous.go for the
// selection rule and shmring.go for the ring.
//
// The write path is zero-copy: outbound payloads are queued as-is and
// handed to the kernel via net.Buffers scatter-gather writes (header and
// payload as separate iovecs, never re-appended into a frame buffer),
// and payloads sent through comm.SendPooled are recycled into the
// process-global buffer pool right after the write syscall. Inbound
// data-lane payloads are drawn from the same pool; the consumer recycles
// them after decoding.
//
// Failure semantics are reconnect-free and fail-fast: the first
// connection error poisons the transport, subsequent sends return it,
// and blocked receivers drain then surface it. Close is clean: pending
// writes drain, the write side half-closes, and readers run to the
// peer's EOF so no in-flight frame is lost at shutdown.
package netcomm

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jsweep/internal/comm"
)

// WireStats counts the frames and bytes this transport put on and took
// off the wire (headers included). Payload-level counters live on the
// endpoint (comm.Endpoint.Counters), so the difference is the framing
// overhead.
type WireStats struct {
	FramesSent, FramesReceived int64
	BytesOut, BytesIn          int64
}

// Transport is a single rank's attachment to a TCP cluster.
type Transport struct {
	cluster string
	rank    int
	world   int

	ep    *Endpoint
	peers []*peer // indexed by rank; nil at the local rank

	// degraded counts directed pairs that came up below the tier
	// WireAuto aimed for (set once at mesh build, immutable after).
	degraded int

	// m holds the obs handles, resolved from obs.Default() at mesh
	// build; the zero value is all no-ops.
	m netMetrics

	closeTimeout time.Duration

	stateMu sync.Mutex
	closed  bool
	failure error
	closing sync.Once

	readWG sync.WaitGroup

	framesSent atomic.Int64
	framesRecv atomic.Int64
	wireOut    atomic.Int64
	wireIn     atomic.Int64
}

// wireMsg is one queued outbound frame: kind plus payload, not yet
// framed — the writeLoop emits header and payload as separate iovecs of
// one scatter-gather write, so the payload crosses into the kernel
// straight from the sender's buffer.
type wireMsg struct {
	kind    byte
	payload []byte
	pooled  bool // recycle payload into the comm pool once written
}

// peer is one remote rank's persistent connection with its write queue.
type peer struct {
	rank    int
	conn    net.Conn
	network string // physical wire of this pair: "tcp", "unix" or "shm"

	mu      sync.Mutex
	cond    *sync.Cond
	outq    []wireMsg
	closing bool
	wdone   chan struct{}

	// Shared-memory tier state (nil/zero for socket pairs). The conn
	// above is retained as the doorbell/shutdown channel; connW
	// serializes its writers (doorbells from both ring loops, the Bye).
	rings    *ringPair
	rdWake   chan struct{} // cap 1: wake the parked ring reader
	wrWake   chan struct{} // cap 1: wake the parked ring writer
	connW    sync.Mutex
	byeSeen  atomic.Bool // peer's Bye arrived on the doorbell connection
	connDown atomic.Bool // doorbell connection is terminal (shmConnLoop exited)
}

// Cluster returns the launch-scoped cluster id this transport joined.
func (t *Transport) Cluster() string { return t.cluster }

// NumRanks returns the cluster's world size.
func (t *Transport) NumRanks() int { return t.world }

// Rank returns the locally hosted rank.
func (t *Transport) Rank() int { return t.rank }

// LocalRanks returns the single locally hosted rank.
func (t *Transport) LocalRanks() []int { return []int{t.rank} }

// Endpoint returns the local rank's endpoint, nil for any other rank.
func (t *Transport) Endpoint(rank int) comm.Endpoint {
	if rank != t.rank {
		return nil
	}
	return t.ep
}

// WireStats returns the frame/byte totals this transport has put on and
// taken off the wire.
func (t *Transport) WireStats() WireStats {
	return WireStats{
		FramesSent:     t.framesSent.Load(),
		FramesReceived: t.framesRecv.Load(),
		BytesOut:       t.wireOut.Load(),
		BytesIn:        t.wireIn.Load(),
	}
}

// PeerNetwork returns the physical wire of the connection to a peer rank
// ("tcp", "unix" or "shm"), or "" for the local rank and out-of-range
// ranks.
func (t *Transport) PeerNetwork(rank int) string {
	if rank < 0 || rank >= t.world || t.peers[rank] == nil {
		return ""
	}
	return t.peers[rank].network
}

// FastPeers counts the peers reached over a same-host fast path —
// shared-memory rings or Unix-domain sockets.
func (t *Transport) FastPeers() int {
	n := 0
	for _, p := range t.peers {
		if p != nil && (p.network == "unix" || p.network == "shm") {
			n++
		}
	}
	return n
}

// ShmPeers counts the peers reached over shared-memory rings (a subset
// of FastPeers).
func (t *Transport) ShmPeers() int {
	n := 0
	for _, p := range t.peers {
		if p != nil && p.network == "shm" {
			n++
		}
	}
	return n
}

// DegradedPairs counts this rank's directed peer pairs that came up
// below the tier WireAuto aimed for: a co-located pair forced onto TCP
// by an unbound or undialable Unix socket, or onto a plain socket by a
// failed ring handshake. Always 0 for forced wire modes. Summed over
// all ranks, a fully degraded co-located pair contributes 2 — the same
// directed-pair convention as FastPairs.
func (t *Transport) DegradedPairs() int { return t.degraded }

// aliveErr returns the transport's terminal state: its first failure, or
// ErrClosed after Close, or nil while healthy.
func (t *Transport) aliveErr() error {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	if t.failure != nil {
		return t.failure
	}
	if t.closed {
		return comm.ErrClosed
	}
	return nil
}

// fail records the first terminal failure and tears the connections down
// so every blocked reader, writer and receiver unblocks with the error.
// Failures are recorded even after Close began: a Bye or drain write
// that fails mid-shutdown must surface (the peer will read our EOF as a
// crash), not masquerade as a clean close.
func (t *Transport) fail(err error) {
	t.stateMu.Lock()
	if t.failure == nil {
		t.failure = fmt.Errorf("netcomm: rank %d transport failed: %w", t.rank, err)
	}
	t.stateMu.Unlock()
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
			p.mu.Lock()
			p.closing = true
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
	t.ep.wake()
}

// Abort tears the transport down without draining: connections are
// force-closed mid-stream (no Bye), so peers observe a failed — not
// cleanly closed — transport and their blocked receivers unblock with
// an error. This is the mandatory exit for a rank abandoning a solve
// early (error paths): a clean Close would leave peers waiting forever
// in a collective for a rank that quietly left.
func (t *Transport) Abort() {
	t.fail(fmt.Errorf("aborted"))
}

// Close shuts the transport down cleanly: sends are refused from now on,
// each peer's pending writes drain and flush before the write side
// half-closes, and the readers run to their peers' EOF so no in-flight
// inbound frame is lost. Close is collective, like MPI_Finalize: every
// rank is expected to close at roughly the same time, since the local
// reader can only finish once the peer half-closes too. A peer that
// never closes (hung or crashed) is bounded by the close timeout, after
// which its connection is forced shut. Idempotent.
func (t *Transport) Close() error {
	t.closing.Do(func() {
		t.stateMu.Lock()
		t.closed = true
		t.stateMu.Unlock()
		for _, p := range t.peers {
			if p != nil {
				p.mu.Lock()
				p.closing = true
				p.cond.Broadcast()
				p.mu.Unlock()
			}
		}
		done := make(chan struct{})
		go func() {
			for _, p := range t.peers {
				if p != nil {
					<-p.wdone
				}
			}
			t.readWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(t.closeTimeout):
			// A peer is not draining (hung or crashed): force the
			// connections shut; our own outbound frames were already
			// flushed by the writers that did finish.
			for _, p := range t.peers {
				if p != nil {
					p.conn.Close()
				}
			}
			<-done
		}
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		// All peer loops have joined (<-done above): the ring mappings
		// are no longer touched and can be released.
		for _, p := range t.peers {
			if p != nil {
				p.rings.close()
			}
		}
		t.ep.wake()
	})
	return nil
}

// takeBatch waits for queued frames (or closing) and swaps the queue with
// spent, the writer's previous batch, whose slots the writer has already
// cleared: the two backing arrays alternate between sender and writer, so
// once both have reached the peak batch size no write batch allocates.
func (p *peer) takeBatch(spent []wireMsg) (batch []wireMsg, closing bool) {
	p.mu.Lock()
	for len(p.outq) == 0 && !p.closing {
		p.cond.Wait()
	}
	batch, p.outq = p.outq, spent[:0]
	closing = p.closing
	p.mu.Unlock()
	return batch, closing
}

// completeFrames reports how many whole frames of a batch fit in the
// written byte count, and the wire bytes (header + payload) those frames
// span. A failed scatter-gather write can stop mid-batch; only frames
// that fully reached the wire are counted.
func completeFrames(batch []wireMsg, written int64) (frames, bytes int64) {
	for _, m := range batch {
		sz := int64(HeaderSize + len(m.payload))
		if written < sz {
			return frames, bytes
		}
		written -= sz
		frames++
		bytes += sz
	}
	return frames, bytes
}

// writeLoop drains one peer's outbound queue, coalescing consecutive
// frames into one scatter-gather writev — the transport-level
// counterpart of the runtime's StreamBatcher (which reduces frame count;
// this reduces syscalls per frame). Headers for a batch live in one flat
// arena and every payload goes to the kernel from the sender's own
// buffer: no per-frame make+append. Wire stats are counted after the
// write returns, covering only frames that actually reached the wire.
func (t *Transport) writeLoop(p *peer) {
	defer close(p.wdone)
	var (
		batch   []wireMsg   // the batch being written; swapped with p.outq
		hdrs    []byte      // flat header arena, HeaderSize bytes per frame
		bufs    net.Buffers // iovec list: hdr, payload, hdr, payload, ...
		wv      net.Buffers // WriteTo's receiver: it escapes, so one per loop, not per write
		closing bool
	)
	lc := t.m.lanes("out", p.network)
	batchHist := t.m.writevBatch.With(p.network)
	for {
		batch, closing = p.takeBatch(batch)
		if len(batch) > 0 {
			if need := len(batch) * HeaderSize; cap(hdrs) < need {
				hdrs = make([]byte, 0, need)
			}
			hdrs = hdrs[:0]
			bufs = bufs[:0]
			for _, m := range batch {
				off := len(hdrs)
				hdrs = AppendHeader(hdrs, m.kind, len(m.payload))
				bufs = append(bufs, hdrs[off:len(hdrs):len(hdrs)], m.payload)
			}
			// WriteTo advances (and nils out) its receiver as buffers are
			// consumed — run it on a copy so bufs[:0] stays reusable.
			wv = bufs
			n, err := wv.WriteTo(p.conn)
			frames, bytes := completeFrames(batch, n)
			t.framesSent.Add(frames)
			t.wireOut.Add(bytes)
			batchHist.Observe(float64(frames))
			for _, m := range batch[:frames] {
				lc.count(m.kind, int64(HeaderSize+len(m.payload)))
			}
			if err != nil {
				t.fail(fmt.Errorf("write to rank %d: %w", p.rank, err))
				return
			}
			for i := range batch {
				if batch[i].pooled {
					comm.PutBuffer(batch[i].payload)
				}
				batch[i] = wireMsg{} // drop the payload refs held by the queue's backing array
			}
		}
		if closing {
			p.mu.Lock()
			drained := len(p.outq) == 0
			p.mu.Unlock()
			if !drained {
				continue
			}
			// In-flight drain complete: announce the clean shutdown (an
			// EOF without Bye reads as a crash on the other side) and
			// half-close so the peer's reader sees EOF exactly at the last
			// frame boundary. A lost Bye is a real failure — the peer will
			// report a fake crash — so it is recorded, not swallowed.
			if _, err := p.conn.Write(AppendHeader(nil, KindBye, 0)); err != nil {
				t.fail(fmt.Errorf("shutdown bye to rank %d: %w", p.rank, err))
				return
			}
			if hc, ok := p.conn.(interface{ CloseWrite() error }); ok {
				hc.CloseWrite()
			}
			return
		}
	}
}

// readLoop receives one peer's frames into the local inbox until the
// peer half-closes (clean EOF at a frame boundary) or the connection
// fails.
func (t *Transport) readLoop(p *peer) {
	defer t.readWG.Done()
	br := bufio.NewReaderSize(p.conn, 64<<10)
	hdr := make([]byte, HeaderSize)
	sawBye := false
	lc := t.m.lanes("in", p.network)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF && sawBye {
				return // peer closed cleanly (Bye then EOF at a frame boundary)
			}
			if t.aliveErr() == nil {
				if err == io.EOF {
					// EOF without a Bye: the peer vanished mid-stream
					// (crash, kill, Abort). Waiting ranks must unblock
					// with an error, not idle forever.
					err = fmt.Errorf("connection closed without shutdown handshake")
				}
				t.fail(fmt.Errorf("read from rank %d: %w", p.rank, err))
			}
			return
		}
		kind, n, err := ParseHeader(hdr)
		if err != nil {
			t.fail(fmt.Errorf("frame from rank %d: %w", p.rank, err))
			return
		}
		if kind == KindBye {
			if n != 0 {
				t.fail(fmt.Errorf("bye frame from rank %d carries %d payload bytes", p.rank, n))
				return
			}
			sawBye = true
			continue
		}
		if kind != KindData && kind != KindOOB {
			t.fail(fmt.Errorf("unexpected %s frame from rank %d on established connection", kindName(kind), p.rank))
			return
		}
		// Data-lane payloads come from the buffer pool: the runtime's
		// consumer recycles them after decoding, closing the zero-copy
		// loop. OOB payloads stay plainly allocated — collective
		// consumers stash them across rounds.
		var payload []byte
		if kind == KindData {
			payload = comm.GetBuffer(n)[:n]
		} else {
			payload = make([]byte, n)
		}
		if _, err := io.ReadFull(br, payload); err != nil {
			t.fail(fmt.Errorf("frame payload from rank %d: %w", p.rank, err))
			return
		}
		t.framesRecv.Add(1)
		t.wireIn.Add(int64(HeaderSize + n))
		lc.count(kind, int64(HeaderSize+n))
		t.ep.deliver(p.rank, payload, kind == KindOOB)
	}
}

// Endpoint is the local rank's attachment: the two-lane inbox plus the
// send paths into the per-peer write queues.
type Endpoint struct {
	t *Transport

	// mu guards both queues; oobCond serves RecvOOB (the only blocking
	// receive — the data lane is TryRecv/Notify only, so it needs no
	// condition variable).
	mu       sync.Mutex
	oobCond  *sync.Cond
	queue    comm.Ring[comm.Message]
	oobQueue comm.Ring[comm.Message]
	notify   chan struct{}

	sent     atomic.Int64
	received atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// Rank returns the local rank.
func (e *Endpoint) Rank() int { return e.t.rank }

// deliver appends an inbound message to the lane's queue.
func (e *Endpoint) deliver(from int, data []byte, oob bool) {
	e.mu.Lock()
	if oob {
		e.oobQueue.Push(comm.Message{From: from, Data: data})
		e.oobCond.Signal()
	} else {
		e.queue.Push(comm.Message{From: from, Data: data})
	}
	e.mu.Unlock()
	if !oob {
		select {
		case e.notify <- struct{}{}:
		default:
		}
	}
}

// wake unblocks receivers parked on either lane (close or failure).
func (e *Endpoint) wake() {
	e.mu.Lock()
	e.oobCond.Broadcast()
	e.mu.Unlock()
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// send queues data for the destination rank's write queue (or delivers
// locally for a self-send). The payload is NOT framed here — the
// writeLoop hands it to the kernel as its own iovec, so this path does
// no copying. pooled marks a comm.GetBuffer-backed payload the writeLoop
// recycles once it is on the wire.
func (e *Endpoint) send(to int, data []byte, oob, pooled bool) error {
	t := e.t
	if to < 0 || to >= t.world {
		return fmt.Errorf("netcomm: rank %d sent to invalid rank %d", t.rank, to)
	}
	if err := t.aliveErr(); err != nil {
		return fmt.Errorf("netcomm: rank %d send to %d: %w", t.rank, to, err)
	}
	e.sent.Add(1)
	e.bytesOut.Add(int64(len(data)))
	if to == t.rank {
		// Self-send: the payload skips the wire, so a pooled buffer is
		// recycled by the local consumer after decoding, not here.
		e.deliver(t.rank, data, oob)
		return nil
	}
	kind := KindData
	if oob {
		kind = KindOOB
	}
	p := t.peers[to]
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		err := t.aliveErr()
		if err == nil {
			err = comm.ErrClosed
		}
		return fmt.Errorf("netcomm: rank %d send to %d: %w", t.rank, to, err)
	}
	p.outq = append(p.outq, wireMsg{kind: kind, payload: data, pooled: pooled})
	p.cond.Signal()
	p.mu.Unlock()
	return nil
}

// Send delivers data on the data lane. The slice is handed over; the
// caller must not modify it afterwards.
func (e *Endpoint) Send(to int, data []byte) error { return e.send(to, data, false, false) }

// SendPooled is Send for a comm.GetBuffer-backed payload: the transport
// recycles the slice into the buffer pool right after the write syscall
// (self-sends hand it to the local receiver, whose consumer recycles it
// after decoding). The caller must not retain or resend the slice.
func (e *Endpoint) SendPooled(to int, data []byte) error { return e.send(to, data, false, true) }

// SendOOB delivers data on the out-of-band lane.
func (e *Endpoint) SendOOB(to int, data []byte) error { return e.send(to, data, true, false) }

// TryRecv returns the next pending data-lane message without blocking.
// Delivered messages remain receivable after Close or failure.
func (e *Endpoint) TryRecv() (comm.Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.queue.Pop()
	if !ok {
		return comm.Message{}, false
	}
	e.received.Add(1)
	e.bytesIn.Add(int64(len(m.Data)))
	return m, true
}

// RecvOOB blocks for the next out-of-band message; after Close (or a
// transport failure) it drains the queue and then returns the terminal
// error.
func (e *Endpoint) RecvOOB() (comm.Message, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.oobQueue.Len() == 0 {
		if err := e.t.aliveErr(); err != nil {
			return comm.Message{}, err
		}
		e.oobCond.Wait()
	}
	m, _ := e.oobQueue.Pop()
	e.received.Add(1)
	e.bytesIn.Add(int64(len(m.Data)))
	return m, nil
}

// Notify returns the data-lane arrival channel; a token may coalesce
// several arrivals — drain with TryRecv.
func (e *Endpoint) Notify() <-chan struct{} { return e.notify }

// Err returns the transport's terminal state: nil while healthy, the
// first failure after a fail-fast teardown, ErrClosed after Close.
func (e *Endpoint) Err() error { return e.t.aliveErr() }

// Pending returns the number of queued data-lane messages.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queue.Len()
}

// Counters returns (sent, received, bytesOut, bytesIn) payload totals
// over both lanes.
func (e *Endpoint) Counters() (sent, received, bytesOut, bytesIn int64) {
	return e.sent.Load(), e.received.Load(), e.bytesOut.Load(), e.bytesIn.Load()
}

var (
	_ comm.Transport    = (*Transport)(nil)
	_ comm.Endpoint     = (*Endpoint)(nil)
	_ comm.PooledSender = (*Endpoint)(nil)
)
