package comm

// White-box regression tests: the buffer pool's class arithmetic and the
// queue-pop slot clearing (a popped message must not stay referenced by
// the queue's backing array — PR 6's retention bugfix).

import (
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

func TestSetPooling(t *testing.T) {
	was := SetPooling(false)
	defer SetPooling(was)
	if on := SetPooling(false); on {
		t.Fatal("SetPooling(false) reported pooling still on")
	}
	b := GetBuffer(128)
	if len(b) != 0 || cap(b) < 128 {
		t.Fatalf("disabled GetBuffer: len=%d cap=%d", len(b), cap(b))
	}
	PutBuffer(b) // dropped, must not panic
	SetPooling(true)
	if on := SetPooling(true); !on {
		t.Fatal("SetPooling(true) reported pooling off")
	}
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
	// One small allocation per cycle is tolerated (the inbox queue regrows
	// once it has drained); the 4 KiB payload itself must be reused and
	// PutBuffer recycles the box the pool stores the slice header in.
	if allocs > 1 {
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
	e.mu.Lock()
	backing, oobBacking := e.queue[:n:n], e.oobQueue[:n:n]
	e.mu.Unlock()
	for i := 0; i < n; i++ {
		if _, ok := e.TryRecv(); !ok {
			t.Fatalf("message %d missing", i)
		}
		if _, err := e.RecvOOB(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if backing[i].Data != nil {
			t.Fatalf("data-lane slot %d still pins its payload after TryRecv", i)
		}
		if oobBacking[i].Data != nil {
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
