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
// Ownership discipline (also recorded in DESIGN.md): a buffer has exactly
// one owner at every hop. PutBuffer hands ownership to the pool — the
// caller must not touch the slice afterwards, and must never put a buffer
// it shared with anyone else (the collectives' AllExchange fans one slice
// out to every rank, which is why only explicitly pooled sends recycle).
package comm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 64 B to 1 MiB. Requests above the
// largest class fall back to plain allocation and are dropped on Put.
const (
	minPoolShift = 6  // 64 B
	maxPoolShift = 20 // 1 MiB
)

var bufPools [maxPoolShift - minPoolShift + 1]sync.Pool

// boxPool recycles the *[]byte boxes the class pools store (a sync.Pool
// holds pointers): Get empties a box into it, Put refills one from it, so
// neither allocates once warm.
var boxPool sync.Pool

// poolingOff disables the pool (benchmark ablation); zero value = pooling on.
var poolingOff atomic.Bool

// SetPooling enables or disables the global buffer pool and reports the
// previous setting. While disabled, GetBuffer allocates and PutBuffer
// drops — the ablation the net benchmark uses to measure what pooling
// saves. Buffers already pooled stay pooled (and are handed out again
// once re-enabled).
func SetPooling(on bool) (was bool) {
	return !poolingOff.Swap(!on)
}

// GetBuffer returns an empty buffer (len 0) with capacity at least n,
// reusing a pooled one when available. Grow it with append; release it
// with PutBuffer once no other holder remains.
func GetBuffer(n int) []byte {
	if poolingOff.Load() {
		return make([]byte, 0, n)
	}
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
	if v := bufPools[shift-minPoolShift].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxPool.Put(box)
		return b
	}
	return make([]byte, 0, 1<<shift)
}

// PutBuffer recycles a buffer into the pool. The slice is handed over:
// the caller must not read or write it afterwards. Any capacity is
// accepted (the buffer files under the largest class its capacity
// covers); nil, tiny and oversized buffers are dropped.
func PutBuffer(b []byte) {
	c := cap(b)
	if c < 1<<minPoolShift || poolingOff.Load() {
		return
	}
	shift := bits.Len(uint(c)) - 1 // floor(log2 cap): every Get of this class fits
	if shift > maxPoolShift {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufPools[shift-minPoolShift].Put(box)
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
