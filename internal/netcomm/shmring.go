// Shared-memory ring wire: the third (fastest) tier of the per-pair
// transport selection. A co-located pair communicates through two mmap'd
// single-producer/single-consumer byte rings — one per direction — so a
// frame crosses ranks with two memcpys and zero syscalls in steady
// state. The dialer creates both ring files under SocketDir during the
// peer handshake; the acceptor maps and immediately unlinks them, so a
// SIGKILL'd rank leaks ring files only during the handshake window.
//
// Progress signaling is futex-free spin-then-park: a side that finds the
// ring empty (reader) or full (writer) spins briefly, publishes a parked
// flag in the ring header, re-checks, and then parks on a channel. The
// opposite side checks the flag after every cursor advance and, when it
// was set, sends a one-byte KindWake frame over the retained Unix-socket
// connection — the doorbell. The same connection carries the final
// KindBye, preserving the transport's clean-shutdown protocol: ring data
// is published (head store) before the Bye write syscall, so everything
// sent before Close is readable when the Bye arrives.
//
// The buffer-ownership contract of the socket wires holds unchanged:
// outbound pooled payloads are recycled into the comm pool right after
// they are copied into the ring (the ring slot, not the pool buffer, is
// what crosses the process boundary), and inbound data-lane payloads are
// decoded into fresh pool buffers that the runtime's consumer recycles.
//
// Memory ordering: head and tail are sync/atomic values on the shared
// mapping. The producer stores head only after the payload copy, the
// consumer stores tail only after copying data out, and each side only
// reads the opposite cursor — the standard SPSC acquire/release pairing,
// which the Go race detector also recognizes as happens-before.
package netcomm

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"jsweep/internal/comm"
)

const (
	// ringMagic marks a ring file ("JSRG").
	ringMagic = uint32(0x4753524A)
	// ringVersion is the ring header layout version.
	ringVersion = uint32(1)
	// ringHdrBytes is the control block preceding the data region: magic,
	// version and capacity up front, then each cursor and parked flag on
	// its own 64-byte cache line to keep producer and consumer from
	// false-sharing.
	ringHdrBytes = 512
	// Header field offsets (bytes from the start of the mapping).
	ringOffMagic      = 0
	ringOffVersion    = 4
	ringOffCap        = 8
	ringOffHead       = 64  // producer cursor (total bytes written)
	ringOffConsParked = 128 // consumer's "wake me" flag
	ringOffTail       = 192 // consumer cursor (total bytes read)
	ringOffProdParked = 256 // producer's "wake me" flag

	// defaultRingBytes is the per-direction data capacity.
	defaultRingBytes = 1 << 20
	// minRingBytes / maxRingBytes bound Options.RingBytes.
	minRingBytes = 4 << 10
	maxRingBytes = 1 << 30

	// ringSpin is how many empty/full polls a side burns before parking;
	// sized so a ping-pong partner that answers within tens of
	// microseconds is caught without ever paying a doorbell round-trip.
	ringSpin = 8192
	// ringParkInterval bounds one park: a belt-and-braces re-check
	// against a lost doorbell, cheap because a parked side is idle.
	ringParkInterval = time.Millisecond
)

// Doorbell wake bytes (KindWake payload).
const (
	wakeData  = byte('d') // data published in your inbound ring
	wakeSpace = byte('s') // space freed in your outbound ring
)

// shmRing is one direction of a shared-memory pair: a byte ring over a
// mmap'd file. The cursors are free-running totals; capacity is a power
// of two so position is cursor&mask.
type shmRing struct {
	mapped []byte // whole mapping (platform file owns creation/teardown)
	data   []byte // data region, len == size
	size   uint64
	mask   uint64

	head       *atomic.Uint64
	tail       *atomic.Uint64
	consParked *atomic.Uint32
	prodParked *atomic.Uint32
}

// ringPair bundles a peer's two directions from the local side's view.
type ringPair struct {
	tx *shmRing // local writes, peer reads
	rx *shmRing // peer writes, local reads
}

func (rp *ringPair) close() {
	if rp == nil {
		return
	}
	rp.tx.close()
	rp.rx.close()
}

// ringCapacity clamps a requested per-direction capacity and rounds it
// up to a power of two (0 means the default).
func ringCapacity(requested int) uint64 {
	c := uint64(defaultRingBytes)
	if requested > 0 {
		c = uint64(requested)
	}
	if c < minRingBytes {
		c = minRingBytes
	}
	if c > maxRingBytes {
		c = maxRingBytes
	}
	// Round up to a power of two.
	p := uint64(minRingBytes)
	for p < c {
		p <<= 1
	}
	return p
}

// bindRing wires the ring's views and atomics onto a mapping.
func bindRing(m []byte, capBytes uint64) *shmRing {
	r := &shmRing{
		mapped: m,
		data:   m[ringHdrBytes : ringHdrBytes+capBytes],
		size:   capBytes,
		mask:   capBytes - 1,
	}
	r.head = atomicU64At(m, ringOffHead)
	r.tail = atomicU64At(m, ringOffTail)
	r.consParked = atomicU32At(m, ringOffConsParked)
	r.prodParked = atomicU32At(m, ringOffProdParked)
	return r
}

// avail returns the readable byte count, free the writable one.
func (r *shmRing) avail() uint64 { return r.head.Load() - r.tail.Load() }
func (r *shmRing) free() uint64  { return r.size - r.avail() }

// writeChunk copies as much of b as currently fits into the ring and
// publishes it, returning the count (0 when full). Producer-side only.
func (r *shmRing) writeChunk(b []byte) int {
	head := r.head.Load()
	n := r.size - (head - r.tail.Load())
	if n > uint64(len(b)) {
		n = uint64(len(b))
	}
	if n == 0 {
		return 0
	}
	off := head & r.mask
	first := n
	if first > r.size-off {
		first = r.size - off
	}
	copy(r.data[off:off+first], b[:first])
	copy(r.data, b[first:n])
	r.head.Store(head + n)
	return int(n)
}

// readChunk copies up to len(b) available bytes out of the ring and
// frees them, returning the count (0 when empty). Consumer-side only.
func (r *shmRing) readChunk(b []byte) int {
	tail := r.tail.Load()
	n := r.head.Load() - tail
	if n > uint64(len(b)) {
		n = uint64(len(b))
	}
	if n == 0 {
		return 0
	}
	off := tail & r.mask
	first := n
	if first > r.size-off {
		first = r.size - off
	}
	copy(b[:first], r.data[off:off+first])
	copy(b[first:n], r.data)
	r.tail.Store(tail + n)
	return int(n)
}

// failedErr returns the transport's first failure, nil otherwise —
// unlike aliveErr it does NOT turn into ErrClosed during Close, so ring
// waiters can keep draining through a clean shutdown.
func (t *Transport) failedErr() error {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	return t.failure
}

// sendDoorbell writes one KindWake frame on the peer's retained
// connection. Serialized with the writer's Bye by connW.
func (t *Transport) sendDoorbell(p *peer, wake byte) error {
	frame := AppendHeader(make([]byte, 0, HeaderSize+1), KindWake, 1)
	frame = append(frame, wake)
	p.connW.Lock()
	_, err := p.conn.Write(frame)
	p.connW.Unlock()
	if err == nil {
		t.m.doorbells.Inc()
	}
	return err
}

// ringWriteAll streams b into the peer's outbound ring, chunking when b
// exceeds the free space — every frame goes through the ring regardless
// of size, so pairwise ordering never depends on a side channel. Rings
// the peer's doorbell whenever its reader parked.
func (t *Transport) ringWriteAll(p *peer, b []byte) error {
	r := p.rings.tx
	for len(b) > 0 {
		n := r.writeChunk(b)
		if n > 0 {
			b = b[n:]
			if r.consParked.Load() != 0 && r.consParked.Swap(0) != 0 {
				if err := t.sendDoorbell(p, wakeData); err != nil {
					return fmt.Errorf("doorbell: %w", err)
				}
			}
			continue
		}
		if err := t.ringAwaitSpace(p, r); err != nil {
			return err
		}
	}
	return nil
}

// ringAwaitSpace spins, then parks until the consumer frees ring space.
func (t *Transport) ringAwaitSpace(p *peer, r *shmRing) error {
	for i := 0; i < ringSpin; i++ {
		if r.free() > 0 {
			return nil
		}
		if i%256 == 255 {
			runtime.Gosched()
		}
	}
	t.m.parks.With("write").Inc()
	defer r.prodParked.Store(0)
	for {
		r.prodParked.Store(1)
		if r.free() > 0 {
			return nil
		}
		if err := t.failedErr(); err != nil {
			return err
		}
		if p.connDown.Load() {
			return fmt.Errorf("doorbell connection down")
		}
		select {
		case <-p.wrWake:
		case <-time.After(ringParkInterval):
		}
	}
}

// ringAwaitData spins, then parks until the producer publishes data.
// Returns (false, nil) when the peer said Bye and the ring is fully
// drained — the clean end of the inbound stream.
func (t *Transport) ringAwaitData(p *peer, r *shmRing) (bool, error) {
	for i := 0; i < ringSpin; i++ {
		if r.avail() > 0 {
			return true, nil
		}
		if p.byeSeen.Load() && r.avail() == 0 {
			return false, nil
		}
		if i%256 == 255 {
			runtime.Gosched()
		}
	}
	t.m.parks.With("read").Inc()
	defer r.consParked.Store(0)
	for {
		r.consParked.Store(1)
		if r.avail() > 0 {
			return true, nil
		}
		if p.byeSeen.Load() && r.avail() == 0 {
			return false, nil
		}
		if err := t.failedErr(); err != nil {
			return false, err
		}
		if p.connDown.Load() {
			return false, fmt.Errorf("doorbell connection down")
		}
		select {
		case <-p.rdWake:
		case <-time.After(ringParkInterval):
		}
	}
}

// ringReadFull fills b from the inbound ring, ringing the peer's
// doorbell whenever its writer parked. eof reports a clean end of
// stream before the first byte; mid-fill stream end is an error.
func (t *Transport) ringReadFull(p *peer, b []byte) (eof bool, err error) {
	r := p.rings.rx
	got := 0
	for got < len(b) {
		n := r.readChunk(b[got:])
		if n > 0 {
			got += n
			if r.prodParked.Load() != 0 && r.prodParked.Swap(0) != 0 {
				if derr := t.sendDoorbell(p, wakeSpace); derr != nil {
					return false, fmt.Errorf("doorbell: %w", derr)
				}
			}
			continue
		}
		more, werr := t.ringAwaitData(p, r)
		if werr != nil {
			return false, werr
		}
		if more {
			continue
		}
		if got == 0 {
			return true, nil
		}
		return false, fmt.Errorf("ring drained mid-frame (%d of %d bytes)", got, len(b))
	}
	return false, nil
}

// shmWriteLoop is the writeLoop of a shared-memory peer: same batch
// take from the outbound queue, but frames are copied into the tx ring
// instead of a writev — pooled payloads recycle right after the copy,
// the ring slot being what actually crosses the process boundary. The
// clean shutdown reuses the socket protocol: after the drain, a KindBye
// on the retained connection marks the end of the ring stream.
func (t *Transport) shmWriteLoop(p *peer) {
	defer close(p.wdone)
	hdr := make([]byte, 0, HeaderSize)
	lc := t.m.lanes("out", "shm")
	var batch []wireMsg // the batch being copied; swapped with p.outq
	for {
		var closing bool
		batch, closing = p.takeBatch(batch)
		for i := range batch {
			m := batch[i]
			hdr = AppendHeader(hdr[:0], m.kind, len(m.payload))
			err := t.ringWriteAll(p, hdr)
			if err == nil {
				err = t.ringWriteAll(p, m.payload)
			}
			if err != nil {
				t.fail(fmt.Errorf("ring write to rank %d: %w", p.rank, err))
				return
			}
			t.framesSent.Add(1)
			t.wireOut.Add(int64(HeaderSize + len(m.payload)))
			lc.count(m.kind, int64(HeaderSize+len(m.payload)))
			if m.pooled {
				comm.PutBuffer(m.payload)
			}
			batch[i] = wireMsg{} // drop the payload refs held by the queue's backing array
		}
		if closing {
			p.mu.Lock()
			drained := len(p.outq) == 0
			p.mu.Unlock()
			if !drained {
				continue
			}
			// Ring data is published (head stores above) before this
			// write syscall, so the peer's reader sees every frame once
			// the Bye lands. No half-close: the connection must stay
			// writable for the reader's doorbells while the peer drains.
			p.connW.Lock()
			_, err := p.conn.Write(AppendHeader(nil, KindBye, 0))
			p.connW.Unlock()
			if err != nil {
				t.fail(fmt.Errorf("shutdown bye to rank %d: %w", p.rank, err))
			}
			return
		}
	}
}

// shmReadLoop is the readLoop of a shared-memory peer: frames are
// decoded straight out of the rx ring. It ends cleanly when the peer's
// Bye has arrived (over the connection, via shmConnLoop) and the ring
// is fully drained — the ring-wire equivalent of EOF at a frame
// boundary.
func (t *Transport) shmReadLoop(p *peer) {
	defer t.readWG.Done()
	hdr := make([]byte, HeaderSize)
	lc := t.m.lanes("in", "shm")
	for {
		eof, err := t.ringReadFull(p, hdr)
		if eof {
			return
		}
		if err == nil {
			var kind byte
			var n int
			if kind, n, err = ParseHeader(hdr); err == nil && kind != KindData && kind != KindOOB {
				err = fmt.Errorf("unexpected %s frame", kindName(kind))
			}
			if err == nil {
				// Same pooling split as the socket readLoop: data-lane
				// payloads come from the pool (the consumer recycles
				// them), OOB payloads stay plainly allocated.
				var payload []byte
				if kind == KindData {
					payload = comm.GetBuffer(n)[:n]
				} else {
					payload = make([]byte, n)
				}
				var eofMid bool
				if eofMid, err = t.ringReadFull(p, payload); err == nil && eofMid && n > 0 {
					err = fmt.Errorf("ring ended between header and payload")
				}
				if err == nil {
					t.framesRecv.Add(1)
					t.wireIn.Add(int64(HeaderSize + n))
					lc.count(kind, int64(HeaderSize+n))
					t.ep.deliver(p.rank, payload, kind == KindOOB)
					continue
				}
			}
		}
		if t.aliveErr() == nil {
			t.fail(fmt.Errorf("ring read from rank %d: %w", p.rank, err))
		}
		return
	}
}

// shmConnLoop services a shared-memory peer's retained connection: it
// demultiplexes doorbell wake-ups onto the park channels and latches the
// peer's Bye for the ring reader. An EOF without a Bye — or any read
// error while the transport is healthy — is a crashed peer, exactly as
// on the socket wires. Not part of readWG: it finishes only when the
// connection actually closes (Close's final teardown), after the ring
// loops are already done.
func (t *Transport) shmConnLoop(p *peer) {
	defer func() {
		// Terminal: unpark both ring loops so they observe byeSeen, the
		// transport failure, or the dead connection.
		p.connDown.Store(true)
		select {
		case p.rdWake <- struct{}{}:
		default:
		}
		select {
		case p.wrWake <- struct{}{}:
		default:
		}
	}()
	hdr := make([]byte, HeaderSize)
	wake := make([]byte, 1)
	for {
		if _, err := io.ReadFull(p.conn, hdr); err != nil {
			if t.aliveErr() == nil {
				if p.byeSeen.Load() {
					return // peer closed cleanly after its Bye
				}
				t.fail(fmt.Errorf("doorbell from rank %d: connection closed without shutdown handshake (%v)", p.rank, err))
			}
			return
		}
		kind, n, err := ParseHeader(hdr)
		if err != nil {
			t.fail(fmt.Errorf("doorbell frame from rank %d: %w", p.rank, err))
			return
		}
		switch {
		case kind == KindWake && n == 1:
			if _, err := io.ReadFull(p.conn, wake); err != nil {
				t.fail(fmt.Errorf("doorbell from rank %d: %w", p.rank, err))
				return
			}
			var ch chan struct{}
			switch wake[0] {
			case wakeData:
				ch = p.rdWake
			case wakeSpace:
				ch = p.wrWake
			default:
				t.fail(fmt.Errorf("unknown doorbell %#02x from rank %d", wake[0], p.rank))
				return
			}
			select {
			case ch <- struct{}{}:
			default:
			}
		case kind == KindBye && n == 0:
			p.byeSeen.Store(true)
			select {
			case p.rdWake <- struct{}{}:
			default:
			}
		default:
			t.fail(fmt.Errorf("unexpected %s frame (%d bytes) from rank %d on shm doorbell connection", kindName(kind), n, p.rank))
			return
		}
	}
}
