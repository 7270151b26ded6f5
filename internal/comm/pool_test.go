package comm

// White-box regression tests: the buffer pool's class arithmetic, its
// survival of garbage collections and its retention budget, and the
// queue-pop slot clearing (a popped message must not stay referenced by
// the queue's backing array — the retention bugfix).

import (
	"math/bits"
	goruntime "runtime"
	"sync"
	"testing"
)

func TestGetBufferCapacityClasses(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096, 1 << 20, 1<<20 + 1, 1 << 24} {
		b := GetBuffer(n)
		if len(b) != 0 {
			t.Fatalf("GetBuffer(%d) len = %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuffer(%d) cap = %d", n, cap(b))
		}
		PutBuffer(b)
	}
}

func TestPutBufferReuse(t *testing.T) {
	// A recycled buffer's capacity must satisfy any Get of the class it
	// was filed under, including buffers whose capacity is not a power of
	// two (filed under the largest class they cover).
	for _, c := range []int{64, 100, 4096, 65536} {
		PutBuffer(make([]byte, 0, c))
		b := GetBuffer(c / 2)
		if cap(b) < c/2 {
			t.Fatalf("reused buffer cap %d < requested %d", cap(b), c/2)
		}
	}
	// Tiny and nil buffers are dropped, not pooled.
	PutBuffer(nil)
	PutBuffer(make([]byte, 0, 8))
}

// emptyClass drops every free buffer of the class serving n-byte requests
// and forgets its carving history, so a test sees the class as a fresh
// process would.
func emptyClass(n int) *sizeClass {
	c := &classes[classShift(n)-minPoolShift]
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		s.free = nil
		s.mu.Unlock()
	}
	c.carveMu.Lock()
	c.carved = 0
	c.carveMu.Unlock()
	return c
}

// retained counts the free buffers a class holds over all its stripes.
func (c *sizeClass) retained() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += len(s.free)
		s.mu.Unlock()
	}
	return n
}

// classShift is the shift of the class GetBuffer(n) draws from.
func classShift(n int) int { return max(minPoolShift, bits.Len(uint(n-1))) }

// TestPoolSurvivesGC: buffers put back before two full collections are
// handed out again afterwards without a single allocation — the pool's
// content does not depend on when the collector ran.
func TestPoolSurvivesGC(t *testing.T) {
	const n, size = 64, 4096
	emptyClass(size)
	held := make([][]byte, n)
	for i := range held {
		held[i] = GetBuffer(size)
	}
	for i := range held {
		PutBuffer(held[i])
		held[i] = nil
	}
	goruntime.GC()
	goruntime.GC()
	allocs := testing.AllocsPerRun(10, func() {
		for i := range held {
			held[i] = GetBuffer(size)
		}
		for i := range held {
			PutBuffer(held[i])
			held[i] = nil
		}
	})
	if allocs != 0 {
		t.Fatalf("re-drawing %d pooled buffers after two GCs allocated %.1f times", n, allocs)
	}
}

// TestPoolRetentionBudget: a burst above the budget comes back to the
// pool, but the class keeps only classBudget bytes of it; the rest goes to
// the garbage collector.
func TestPoolRetentionBudget(t *testing.T) {
	const size = 128 << 10
	c := emptyClass(size)
	limit := stripeCap(classShift(size)) * poolStripes
	burst := make([][]byte, limit+2*poolStripes)
	for i := range burst {
		burst[i] = GetBuffer(size)
	}
	for i := range burst {
		PutBuffer(burst[i])
		burst[i] = nil
	}
	if kept := c.retained(); kept*size > classBudget || kept != limit {
		t.Fatalf("class keeps %d buffers = %d bytes after a burst of %d; budget %d bytes", kept, kept*size, len(burst), classBudget)
	}
	emptyClass(size)
}

// TestPoolGrowsBySlabs: reaching a new in-flight peak costs a logarithmic
// number of allocations — one slab per miss, each as large as everything
// the class carved before (up to maxSlabBytes), and the doublings of each
// stripe's stack — not one per buffer.
func TestPoolGrowsBySlabs(t *testing.T) {
	const n, size = 1000, 2048
	emptyClass(size)
	held := make([][]byte, n)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := range held {
		held[i] = GetBuffer(size)
	}
	goruntime.ReadMemStats(&after)
	for i := range held {
		if cap(held[i]) != size {
			t.Fatalf("buffer %d: cap %d, want the class size %d", i, cap(held[i]), size)
		}
		// Buffers carved from one slab must not overlap: write a marker
		// at the end of each through a full-capacity reslice.
		held[i] = held[i][:size]
		held[i][size-1] = byte(i)
	}
	for i := range held {
		if held[i][size-1] != byte(i) {
			t.Fatalf("buffer %d overlaps a neighbour", i)
		}
		PutBuffer(held[i])
	}
	if allocs, limit := after.Mallocs-before.Mallocs, uint64((poolStripes+2)*bits.Len(n)); allocs > limit {
		t.Fatalf("drawing %d fresh buffers allocated %d times, want at most %d", n, allocs, limit)
	}
	emptyClass(size)
}

// TestPooledSendSteadyStateAllocs pins the zero-copy claim at the comm
// layer: a steady-state send/receive/recycle cycle over the in-memory
// transport performs no per-message payload allocation.
func TestPooledSendSteadyStateAllocs(t *testing.T) {
	tr, err := NewTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	src, dst := tr.endpoints[0], tr.endpoints[1]
	// Warm the pool and the queues' backing arrays.
	for i := 0; i < 8; i++ {
		buf := append(GetBuffer(4096), make([]byte, 4096)...)
		if err := SendPooled(src, 1, buf); err != nil {
			t.Fatal(err)
		}
		m, ok := dst.TryRecv()
		if !ok {
			t.Fatal("message missing")
		}
		PutBuffer(m.Data)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf := GetBuffer(4096)
		buf = buf[:4096]
		if err := SendPooled(src, 1, buf); err != nil {
			t.Fatal(err)
		}
		m, ok := dst.TryRecv()
		if !ok {
			t.Fatal("message missing")
		}
		PutBuffer(m.Data)
	})
	// The 4 KiB payload is reused and the inbox ring keeps its capacity:
	// nothing is allocated per message.
	if allocs != 0 {
		t.Fatalf("steady-state send/recv/recycle allocates %.1f times per message", allocs)
	}
}

// TestTryRecvClearsQueueSlot pins the retention bugfix: after a pop the
// backing array must not keep referencing the consumed message.
func TestTryRecvClearsQueueSlot(t *testing.T) {
	tr, err := NewTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	e := tr.endpoints[0]
	const n = 8
	for i := 0; i < n; i++ {
		if err := e.Send(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := e.SendOOB(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := e.TryRecv(); !ok {
			t.Fatalf("message %d missing", i)
		}
		if _, err := e.RecvOOB(); err != nil {
			t.Fatal(err)
		}
	}
	// The rings keep their backing arrays: every slot of them must be
	// empty once everything was consumed.
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, m := range e.queue.buf {
		if m.Data != nil {
			t.Fatalf("data-lane slot %d still pins its payload after TryRecv", i)
		}
	}
	for i, m := range e.oobQueue.buf {
		if m.Data != nil {
			t.Fatalf("oob slot %d still pins its payload after RecvOOB", i)
		}
	}
}

// TestPoolConcurrentAccess exercises the pool under the race detector.
func TestPoolConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := GetBuffer(64 << (g % 5))
				b = append(b, byte(i))
				PutBuffer(b)
			}
		}(g)
	}
	wg.Wait()
}
