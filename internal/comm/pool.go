// Process-global byte-buffer pool, the one pool behind both things that
// travel: stream payloads and data-lane messages. A patch-program draws
// each outgoing payload here and hands it over at Output; whoever consumes
// it puts it back — the target program's Input on a local route, the master
// right after packing it into a message on a remote route, and on the
// receiving rank the codec copies it into a fresh pooled buffer that the
// target's Input releases in turn. The runtime's master loops likewise
// allocate every outbound message here and recycle every consumed inbound
// one: with the in-memory backend a buffer travels sender → receiver →
// pool, with the netcomm backend the sender's transport recycles it after
// the write syscall and the receiver's read loop draws its inbound buffers
// from its own process's pool. A steady-state solve therefore allocates
// neither per stream nor per message.
//
// Each power-of-two size class is a set of mutex-guarded stacks of free
// buffers that the garbage collector never empties: what a solve put back
// is there for the next one, however many collections ran in between, so
// the count of allocations a solve makes does not depend on when the GC
// happened to run. Three rules shape it:
//
//   - Stripes: a class spreads its free buffers over poolStripes stacks,
//     each behind its own lock. A Get starts at a random stripe; a Put
//     starts at the buffer's home stripe, fixed by its address, so a
//     stack holds its own home buffers plus the odd stray put there while
//     the home stripe was locked, and stops growing once the class does.
//     Both first pass over the stripes only try-locking them, skipping one
//     another goroutine holds; only a pass that found nothing waits for
//     the locks. A caller therefore almost never parks on the pool — a
//     parked waiter pays a whole rescheduling, not a short critical
//     section.
//   - Retention: a class keeps at most classBudget bytes of free buffers; a
//     PutBuffer beyond that drops the buffer to the garbage collector.
//   - Growth: a Get that finds every stripe of its class empty carves a
//     whole slab — as many buffers as the class has carved so far, at most
//     maxSlabBytes — and stacks the spares, so reaching a new in-flight
//     peak costs a logarithmic number of allocations, not one per buffer.
//
// Ownership discipline (also recorded in DESIGN.md): a buffer has exactly
// one owner at every hop. PutBuffer hands ownership to the pool — the
// caller must not touch the slice afterwards, and must never put a buffer
// it shared with anyone else (the collectives' AllExchange fans one slice
// out to every rank, which is why only explicitly pooled sends recycle).
package comm

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"unsafe"
)

// Size classes are powers of two from 64 B to 1 MiB. Requests above the
// largest class fall back to plain allocation and are dropped on Put.
const (
	minPoolShift = 6  // 64 B
	maxPoolShift = 20 // 1 MiB
)

const (
	// classBudget is the most free bytes one size class retains (at least
	// one buffer per stripe): with 15 classes the pool can never hold more
	// than 15 × 16 MiB, and holds only what a workload has had in flight.
	// A Kobayashi-32 S4 sweep on 2 ranks peaks at about 5 MiB of 1 KiB
	// payloads in flight; a class whose peak exceeds the budget drops the
	// excess at every trough and carves it again at the next peak.
	classBudget = 16 << 20
	// maxSlabBytes caps the slab a miss carves, so one burst of misses in
	// a small class cannot allocate its whole budget at once.
	maxSlabBytes = 256 << 10
	// poolStripes is the number of stacks a class is spread over.
	poolStripes = 8
)

// sizeClass is one class of the pool. Every free buffer has len 0 and cap
// exactly the class size.
type sizeClass struct {
	stripes [poolStripes]stripe
	// carveMu guards carved, the number of buffers this class has cut
	// from slabs; a miss carves that many again (bounded), doubling the
	// class's population.
	carveMu sync.Mutex
	carved  int
}

// stripe is one stack of a class's free buffers.
type stripe struct {
	mu   sync.Mutex
	free [][]byte
	_    [32]byte // pad to a cache line: neighbouring stripes do not false-share
}

var classes [maxPoolShift - minPoolShift + 1]sizeClass

// lock takes the stripe's lock and reports true, or with wait false only
// tries to and reports whether it got it.
func (s *stripe) lock(wait bool) bool {
	if wait {
		s.mu.Lock()
		return true
	}
	return s.mu.TryLock()
}

// stripeCap is the number of free buffers one stripe of the class with the
// given shift may retain.
func stripeCap(shift int) int { return max(1, classBudget>>shift/poolStripes) }

// GetBuffer returns an empty buffer (len 0) with capacity at least n,
// reusing a pooled one when available. Grow it with append; release it
// with PutBuffer once no other holder remains.
func GetBuffer(n int) []byte {
	if n < 1 {
		n = 1
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2 n)
	if shift < minPoolShift {
		shift = minPoolShift
	}
	if shift > maxPoolShift {
		return make([]byte, 0, n)
	}
	c := &classes[shift-minPoolShift]
	i := rand.Uint32()
	for _, wait := range [...]bool{false, true} {
		for range poolStripes {
			s := &c.stripes[i%poolStripes]
			i++
			if !s.lock(wait) {
				continue
			}
			if k := len(s.free); k > 0 {
				b := s.free[k-1]
				s.free[k-1] = nil
				s.free = s.free[:k-1]
				s.mu.Unlock()
				return b
			}
			s.mu.Unlock()
		}
	}
	return c.carve(shift)
}

// carve allocates one slab for a class whose stripes are all empty, deals
// all buffers but the first to the stripes and returns that one. The
// three-index slices keep every buffer's capacity inside its own segment,
// so an append past it reallocates instead of overwriting a neighbour.
func (c *sizeClass) carve(shift int) []byte {
	c.carveMu.Lock()
	k := min(max(c.carved, 1), max(1, maxSlabBytes>>shift), stripeCap(shift)*poolStripes)
	c.carved += k
	c.carveMu.Unlock()
	size := 1 << shift
	slab := make([]byte, k*size)
	for off := size; off < len(slab); off += size {
		c.put(shift, slab[off:off:off+size])
	}
	return slab[0:0:size]
}

// PutBuffer recycles a buffer into the pool. The slice is handed over:
// the caller must not read or write it afterwards. Any capacity is
// accepted (the buffer files under the largest class its capacity
// covers, trimmed to that class's size); nil, tiny and oversized buffers
// are dropped, and so is a buffer whose class already retains its budget.
func PutBuffer(b []byte) {
	shift := bits.Len(uint(cap(b))) - 1 // floor(log2 cap): every Get of this class fits
	if shift < minPoolShift || shift > maxPoolShift {
		return
	}
	classes[shift-minPoolShift].put(shift, b[:0:1<<shift])
}

// put stacks a free buffer on the first stripe from its home stripe on
// with room for it (try-locking first, as GetBuffer does), or drops it
// when the class already retains its budget. Consecutive buffers of a
// slab have consecutive homes.
func (c *sizeClass) put(shift int, b []byte) {
	i := uint32(uintptr(unsafe.Pointer(unsafe.SliceData(b))) >> shift)
	for _, wait := range [...]bool{false, true} {
		for range poolStripes {
			s := &c.stripes[i%poolStripes]
			i++
			if !s.lock(wait) {
				continue
			}
			if len(s.free) < stripeCap(shift) {
				s.free = append(s.free, b)
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
		}
	}
}

// PooledSender is the optional endpoint capability behind SendPooled: a
// transport that serializes payloads onto a wire implements it to
// recycle the payload into the pool right after the write syscall
// (instead of leaving it to the garbage collector — the receiving
// process has its own pool).
type PooledSender interface {
	// SendPooled is Send for a payload obtained from GetBuffer: the data
	// slice is handed over AND will be recycled by the transport once it
	// is on the wire. The caller must not retain or resend the slice.
	SendPooled(to int, data []byte) error
}

// SendPooled sends a GetBuffer-backed payload on the data lane,
// recycling it as early as its transport allows: a PooledSender backend
// reclaims it after the write syscall; any other backend (the in-memory
// transport) passes it to the receiver, whose consumer is expected to
// PutBuffer it after decoding. Never use this for a slice sent to more
// than one destination — recycling a shared slice corrupts the pool.
func SendPooled(ep Endpoint, to int, data []byte) error {
	if ps, ok := ep.(PooledSender); ok {
		return ps.SendPooled(to, data)
	}
	return ep.Send(to, data)
}
