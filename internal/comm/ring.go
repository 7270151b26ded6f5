package comm

// Ring is the one FIFO of the message path: every inbox, stash and replay
// queue between a sender and its consumer is a Ring. It is a circular
// buffer whose length is zero or a power of two; a push onto a full ring
// doubles it (copying in FIFO order), and nothing ever shrinks it, so a
// queue that has once held its working set never allocates again. A pop
// zeroes the slot it vacates: the backing array outlives the pop, and a
// lingering reference would pin the consumed payload — defeating buffer
// recycling and keeping dead messages reachable.
//
// The zero value is an empty ring. A Ring is not safe for concurrent use;
// its owner guards it.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// minRing is the capacity of a ring's first backing array.
const minRing = 8

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest element; ok is false when the ring is
// empty. The vacated slot is zeroed.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// grow doubles a full ring, moving its elements to the front of the new
// backing array in FIFO order.
func (r *Ring[T]) grow() {
	c := 2 * len(r.buf)
	if c == 0 {
		c = minRing
	}
	buf := make([]T, c)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
