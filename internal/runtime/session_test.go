package runtime

// White-box session-lifecycle tests: multi-round reuse of one Runtime,
// the termination detectors' state across Reset, and the quiescence
// flush on rounds after the first. These run in package runtime so they
// can inspect per-process detector state directly.

import (
	"testing"
	"time"

	"jsweep/internal/testprog"
)

// buildGrid registers a W×H accumulator grid round-robin across procs.
func buildGrid(t *testing.T, rt *Runtime, w, h, procs int) ([]*testprog.Accumulator, *testprog.Results) {
	t.Helper()
	spec := testprog.GridSpec{W: w, H: h}
	progs, sink := spec.Build()
	for i, a := range progs {
		if err := rt.Register(a.Key, a, 0, i%procs); err != nil {
			t.Fatal(err)
		}
	}
	return progs, sink
}

// checkGrid verifies every node value against the closed-form result.
func checkGrid(t *testing.T, round int, w, h int, sink *testprog.Results) {
	t.Helper()
	spec := testprog.GridSpec{W: w, H: h}
	for k, want := range spec.Want() {
		got, ok := sink.Get(k)
		if !ok || got != want {
			t.Fatalf("round %d: %v = %d (ok=%v), want %d", round, k, got, ok, want)
		}
	}
}

// runRoundTimeout runs one round with a watchdog so a termination bug
// fails fast instead of hanging the whole test binary.
func runRoundTimeout(t *testing.T, rt *Runtime) Stats {
	t.Helper()
	type outcome struct {
		st  Stats
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		st, err := rt.RunRound()
		ch <- outcome{st, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.st
	case <-time.After(60 * time.Second):
		t.Fatal("round did not terminate within 60s")
		return Stats{}
	}
}

// TestSessionMultiRoundStress drives one persistent runtime through ≥20
// rounds on a 4-proc × 4-worker topology under both termination
// detectors — the state-leak regression test (run under -race in CI).
func TestSessionMultiRoundStress(t *testing.T) {
	const w, h, procs, workers, rounds = 12, 12, 4, 4, 20
	for _, term := range []TerminationMode{Workload, Safra} {
		t.Run(term.String(), func(t *testing.T) {
			rt, err := New(Config{Procs: procs, Workers: workers, Termination: term})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			progs, sink := buildGrid(t, rt, w, h, procs)
			for round := 1; round <= rounds; round++ {
				if round > 1 {
					for _, a := range progs {
						a.Reset()
					}
					if err := rt.Reset(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				st := runRoundTimeout(t, rt)
				if st.RoundsRun != 1 {
					t.Fatalf("round stats RoundsRun = %d", st.RoundsRun)
				}
				checkGrid(t, round, w, h, sink)
			}
			for _, a := range progs {
				if a.InitSeen != 1 {
					t.Fatalf("program %v: Init called %d times across %d rounds", a.Key, a.InitSeen, rounds)
				}
			}
			cum := rt.CumulativeStats()
			if cum.RoundsRun != rounds || rt.RoundsRun() != rounds {
				t.Errorf("cumulative RoundsRun = %d (RoundsRun() = %d), want %d", cum.RoundsRun, rt.RoundsRun(), rounds)
			}
			if cum.Cycles < int64(rounds)*int64(w*h) {
				t.Errorf("cumulative cycles %d too low for %d rounds of %d programs", cum.Cycles, rounds, w*h)
			}
			last := rt.LastRoundStats()
			if last.Cycles <= 0 || last.Cycles >= cum.Cycles {
				t.Errorf("last round cycles %d vs cumulative %d", last.Cycles, cum.Cycles)
			}
		})
	}
}

// TestResetClearsDetectorState checks the round-boundary contract of both
// detectors: after Reset every process is all-white with balanced
// counters, no token, no done reports, and all programs reactivated.
func TestResetClearsDetectorState(t *testing.T) {
	const w, h, procs = 6, 6, 3
	rt, err := New(Config{Procs: procs, Workers: 2, Termination: Safra})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	progs, sink := buildGrid(t, rt, w, h, procs)
	runRoundTimeout(t, rt)
	checkGrid(t, 1, w, h, sink)

	// Simulate the worst-case end-of-round residue of a process that went
	// active→passive late: blackened, with a locally unbalanced counter
	// and stale token bookkeeping (globally the counters sum to zero).
	rt.procs[1].safraColor = tokenBlack
	rt.procs[1].safraCounter = 7
	rt.procs[2].safraColor = tokenBlack
	rt.procs[2].safraCounter = -7
	rt.procs[0].tokenCount = 3
	rt.procs[0].probedOnce = true

	for _, a := range progs {
		a.Reset()
	}
	if err := rt.Reset(); err != nil {
		t.Fatal(err)
	}
	for r, p := range rt.procs {
		if p.safraColor != tokenWhite || p.safraCounter != 0 {
			t.Errorf("rank %d: color=%d counter=%d after Reset", r, p.safraColor, p.safraCounter)
		}
		if p.holdingToken || p.tokenColor != tokenWhite || p.tokenCount != 0 || p.probedOnce {
			t.Errorf("rank %d: stale token state after Reset", r)
		}
		if len(p.doneReports) != 0 || p.sentDone {
			t.Errorf("rank %d: stale workload state after Reset", r)
		}
		if p.activePrograms != len(p.order) {
			t.Errorf("rank %d: %d of %d programs active after Reset", r, p.activePrograms, len(p.order))
		}
	}

	// The follow-up round must reach quiescence again: the fresh white
	// probe may not terminate off the first round's stale token.
	runRoundTimeout(t, rt)
	checkGrid(t, 2, w, h, sink)
	if got := rt.RoundsRun(); got != 2 {
		t.Errorf("RoundsRun = %d, want 2", got)
	}
}

// TestSafraSingleProcAcrossRounds exercises the rank-0-only termination
// edge case (passive with counter 0, no token ring) across a Reset.
func TestSafraSingleProcAcrossRounds(t *testing.T) {
	rt, err := New(Config{Procs: 1, Workers: 2, Termination: Safra})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	progs, sink := buildGrid(t, rt, 4, 4, 1)
	for round := 1; round <= 3; round++ {
		if round > 1 {
			for _, a := range progs {
				a.Reset()
			}
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		runRoundTimeout(t, rt)
		checkGrid(t, round, 4, 4, sink)
	}
}

// TestQuiescentFlushFiresOnLaterRounds is the regression test that the
// quiescence flush — the only thing draining a batch that can never fill
// — still fires on round 2 and beyond. Size and deadline triggers are
// pushed out of reach, so any flush bookkeeping leaking across Reset
// would deadlock the follow-up rounds.
func TestQuiescentFlushFiresOnLaterRounds(t *testing.T) {
	const w, h, procs = 6, 6, 3
	rt, err := New(Config{
		Procs: procs, Workers: 2, Termination: Workload,
		Aggregation: AggregationConfig{
			Enabled:         true,
			MaxBatchStreams: 1 << 20,
			MaxBatchBytes:   1 << 30,
			FlushInterval:   time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	progs, sink := buildGrid(t, rt, w, h, procs)
	for round := 1; round <= 3; round++ {
		if round > 1 {
			for _, a := range progs {
				a.Reset()
			}
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		st := runRoundTimeout(t, rt)
		checkGrid(t, round, w, h, sink)
		if st.RemoteStreams == 0 {
			t.Fatalf("round %d: no remote streams — test not exercising batching", round)
		}
		if st.FlushOnDeadline == 0 {
			t.Errorf("round %d: no quiescence flushes despite unreachable size/deadline triggers", round)
		}
		if st.StreamsBatched != st.RemoteStreams {
			t.Errorf("round %d: %d of %d remote streams batched", round, st.StreamsBatched, st.RemoteStreams)
		}
	}
}

// TestSessionAPIMisuse pins the lifecycle error contract.
func TestSessionAPIMisuse(t *testing.T) {
	rt, err := New(Config{Procs: 2, Workers: 1, Termination: Workload})
	if err != nil {
		t.Fatal(err)
	}
	progs, _ := buildGrid(t, rt, 3, 3, 2)
	runRoundTimeout(t, rt)

	// A second round without Reset must be refused.
	if _, err := rt.RunRound(); err == nil {
		t.Error("RunRound without Reset should fail")
	}
	// Registration is closed once the session started.
	if err := rt.Register(progs[0].Key, progs[0], 0, 0); err == nil {
		t.Error("Register after session start should fail")
	}
	// Reset + round still works after the failed attempts.
	for _, a := range progs {
		a.Reset()
	}
	if err := rt.Reset(); err != nil {
		t.Fatal(err)
	}
	runRoundTimeout(t, rt)

	// Close is idempotent and ends the session.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunRound(); err == nil {
		t.Error("RunRound after Close should fail")
	}
	if err := rt.Reset(); err == nil {
		t.Error("Reset after Close should fail")
	}
	// Statistics stay readable after Close.
	if rt.CumulativeStats().RoundsRun != 2 {
		t.Errorf("cumulative RoundsRun = %d, want 2", rt.CumulativeStats().RoundsRun)
	}
}

// TestSessionPingPongAcrossRounds reuses the reentrant zig-zag programs
// (partial computation, paper Fig. 4) across rounds: cross-process
// mutual dependencies must replay identically in every round.
func TestSessionPingPongAcrossRounds(t *testing.T) {
	for _, term := range []TerminationMode{Workload, Safra} {
		t.Run(term.String(), func(t *testing.T) {
			sink := testprog.NewResults()
			ka := testprog.GridSpec{W: 2, H: 1}.Key(0, 0)
			kb := testprog.GridSpec{W: 2, H: 1}.Key(1, 0)
			const roundsPP = 9
			a := &testprog.PingPong{Key: ka, Peer: kb, Rounds: roundsPP, Starter: true, Sink: sink}
			bp := &testprog.PingPong{Key: kb, Peer: ka, Rounds: roundsPP, Sink: sink}
			rt, err := New(Config{Procs: 2, Workers: 2, Termination: term})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if err := rt.Register(ka, a, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := rt.Register(kb, bp, 0, 1); err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 5; round++ {
				if round > 1 {
					a.Reset()
					bp.Reset()
					if err := rt.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				runRoundTimeout(t, rt)
				va, _ := sink.Get(ka)
				vb, _ := sink.Get(kb)
				if va != 2*roundsPP-2 || vb != 2*roundsPP-1 {
					t.Fatalf("round %d: a=%d b=%d, want %d,%d", round, va, vb, 2*roundsPP-2, 2*roundsPP-1)
				}
			}
		})
	}
}

// Two fresh runtimes hand the initially active programs to the same
// workers: the starting assignment follows registration order, not map
// iteration order, so a multi-worker schedule is reproducible from its
// first step. (With 3 workers and 30 programs per rank a map walk would
// agree by chance once in ~3^29 runs.)
func TestInitialAssignmentIsDeterministic(t *testing.T) {
	const procs, workers = 2, 3
	assignment := func() map[string]int {
		rt, err := New(Config{Procs: procs, Workers: workers, Termination: Workload})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		buildGrid(t, rt, 10, 6, procs)
		got := make(map[string]int)
		for _, p := range rt.procs {
			p.assignInitial()
			for i, ps := range p.order {
				if want := i % workers; ps.worker != want {
					t.Errorf("rank %d: program %d (%v) on worker %d, want %d (round-robin in registration order)", p.rank, i, ps.key, ps.worker, want)
				}
				got[ps.key.String()] = ps.worker
			}
		}
		return got
	}
	a, b := assignment(), assignment()
	if len(a) != 60 {
		t.Fatalf("assigned %d programs, want 60", len(a))
	}
	for k, w := range a {
		if b[k] != w {
			t.Errorf("program %s: worker %d in one runtime, %d in the other", k, w, b[k])
		}
	}
}
