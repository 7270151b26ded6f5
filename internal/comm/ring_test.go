package comm

import "testing"

// TestRingFIFOAcrossWrapAndGrowth drives a ring through every shape it can
// take — wrapped, full, grown while wrapped, drained — against a slice
// model: it must hand elements out exactly in push order.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[int]
	var model []int
	next := 0
	// Occupancy rises and falls in waves so the head walks all the way
	// round the buffer several times between growths.
	for wave, occupancy := range []int{3, 7, 2, 8, 9, 1, 30, 5, 70, 0} {
		for r.Len() < occupancy {
			r.Push(next)
			model = append(model, next)
			next++
		}
		for r.Len() > occupancy {
			v, ok := r.Pop()
			if !ok || v != model[0] {
				t.Fatalf("wave %d: Pop = %d, %v; want %d", wave, v, ok, model[0])
			}
			model = model[1:]
		}
		// Rotate at this occupancy: the head wraps past the buffer end.
		for i := 0; i < 2*len(r.buf); i++ {
			r.Push(next)
			model = append(model, next)
			next++
			v, _ := r.Pop()
			if v != model[0] {
				t.Fatalf("wave %d rotation: Pop = %d, want %d", wave, v, model[0])
			}
			model = model[1:]
		}
		if r.Len() != len(model) {
			t.Fatalf("wave %d: Len = %d, want %d", wave, r.Len(), len(model))
		}
		if n := len(r.buf); n&(n-1) != 0 {
			t.Fatalf("wave %d: capacity %d is not a power of two", wave, n)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on an empty ring reported an element")
	}
}

// TestRingPopZeroesSlot: the backing array outlives every pop, so a popped
// slot must not keep its element's references alive.
func TestRingPopZeroesSlot(t *testing.T) {
	var r Ring[[]byte]
	for i := 0; i < 5; i++ {
		r.Push(make([]byte, 1))
	}
	for i := 0; i < 3; i++ { // wrap the head
		r.Pop()
		r.Push(make([]byte, 1))
	}
	for r.Len() > 0 {
		r.Pop()
	}
	for i, b := range r.buf {
		if b != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

// TestRingSteadyStateAllocs: once a ring has held its working set, pushes
// and pops at that occupancy never allocate.
func TestRingSteadyStateAllocs(t *testing.T) {
	var r Ring[Message]
	for i := 0; i < 100; i++ {
		r.Push(Message{From: i})
	}
	for r.Len() > 37 {
		r.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			r.Push(Message{From: i})
		}
		for i := 0; i < 50; i++ {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per run", allocs)
	}
}
