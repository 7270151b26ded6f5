package runtime

import (
	"testing"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/mesh"
)

// burst is an allocation-free test program: once per round it sends n
// pooled 64-byte payloads to its peer in a single Compute (one message
// carrying n streams on the unbatched path) and recycles the n it receives.
type burst struct {
	key, peer core.ProgramKey
	n         int

	sent     bool
	received int
	pending  []core.Stream
	head     int
}

func (b *burst) Init() {}

func (b *burst) reset() { b.sent, b.received, b.pending, b.head = false, 0, b.pending[:0], 0 }

func (b *burst) Input(s core.Stream) {
	b.received++
	comm.PutBuffer(s.Payload)
}

func (b *burst) Compute() {
	if b.sent {
		return
	}
	b.sent = true
	for i := 0; i < b.n; i++ {
		b.pending = append(b.pending, core.Stream{
			SrcPatch: b.key.Patch, SrcTask: b.key.Task,
			TgtPatch: b.peer.Patch, TgtTask: b.peer.Task,
			Payload: comm.GetBuffer(64)[:64],
		})
	}
}

func (b *burst) Output() (core.Stream, bool) {
	if b.head == len(b.pending) {
		return core.Stream{}, false
	}
	s := b.pending[b.head]
	b.pending[b.head] = core.Stream{}
	b.head++
	return s, true
}

func (b *burst) VoteToHalt() bool { return true }

func (b *burst) RemainingWork() int64 {
	rem := int64(b.n - b.received)
	if !b.sent {
		rem++
	}
	return rem
}

// burstRoundAllocs runs a 2×1 in-process session of `pairs` burst pairs
// straddling the two ranks, n streams per burst, and returns the steady-state
// allocations and messages of one Reset + RunRound.
func burstRoundAllocs(t *testing.T, pairs, n int) (allocs float64, messages int64) {
	t.Helper()
	rt, err := New(Config{Procs: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var progs []*burst
	for i := 0; i < pairs; i++ {
		a := core.ProgramKey{Patch: mesh.PatchID(2 * i)}
		b := core.ProgramKey{Patch: mesh.PatchID(2*i + 1)}
		progs = append(progs, &burst{key: a, peer: b, n: n}, &burst{key: b, peer: a, n: n})
	}
	for i, p := range progs {
		if err := rt.Register(p.key, p, 0, i%2); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		if rt.RoundsRun() > 0 {
			for _, p := range progs {
				p.reset()
			}
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := rt.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2 * pairs * n); st.RemoteStreams != want {
			t.Fatalf("round routed %d remote streams, want %d", st.RemoteStreams, want)
		}
		messages = st.Messages
	}
	// Warm up: grow every inbox, queue and scratch slice to its working size.
	for i := 0; i < 3; i++ {
		round()
	}
	return testing.AllocsPerRun(10, round), messages
}

// TestRuntimeRoundAllocCeiling: what a RunRound allocates is bounded by a
// constant plus a constant per message — and does not grow with the number
// of streams those messages carry. Both constants are zero: the masters,
// workers and tickers are the session's, made once before the first round.
func TestRuntimeRoundAllocCeiling(t *testing.T) {
	const pairs = 8
	const perRound, perMessage = 0, 0
	few, fewMsgs := burstRoundAllocs(t, pairs, 4)
	many, manyMsgs := burstRoundAllocs(t, pairs, 256)
	t.Logf("allocs/round: %.0f with %d messages of 4 streams, %.0f with %d messages of 256 streams", few, fewMsgs, many, manyMsgs)
	for _, r := range []struct {
		name   string
		allocs float64
		msgs   int64
	}{{"4 streams/message", few, fewMsgs}, {"256 streams/message", many, manyMsgs}} {
		if ceiling := float64(perRound + perMessage*r.msgs); r.allocs > ceiling {
			t.Errorf("%s: %.0f allocations per round, ceiling %d + %d×%d messages = %.0f", r.name, r.allocs, perRound, perMessage, r.msgs, ceiling)
		}
	}
	// 64× the streams in as many messages must not cost more than noise.
	if many > few+16 {
		t.Errorf("allocations grow with the stream count: %.0f per round at 4 streams/message, %.0f at 256", few, many)
	}
}
