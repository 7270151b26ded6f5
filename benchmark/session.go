package main

// A session is one cold-built, persistent solver cluster: what a user has
// after set-up and before the first sweep. The in-process workloads hold a
// single sweep.Solver that runs every rank as goroutines; the socket
// workloads hold one Solver per rank, each on its own netcomm transport
// joined through a real loopback rendezvous — the code path of
// jsweep-node minus process isolation.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jsweep/internal/comm"
	"jsweep/internal/mesh"
	"jsweep/internal/netcomm"
	"jsweep/internal/nodespec"
	"jsweep/internal/obs"
	"jsweep/internal/runtime"
	"jsweep/internal/sweep"
	"jsweep/internal/transport"
)

// Transports a session can run on. wireInternal lets the solver create
// its own in-memory transport (the inproc backend of the Job API);
// wireMem passes an explicit comm.MemTransport; the rest are netcomm's
// forced wire tiers.
const (
	wireInternal = "inproc"
	wireMem      = "mem"
	wireShm      = "shm"
	wireUDS      = "uds"
	wireTCP      = "tcp"
)

type session struct {
	spec    nodespec.Spec
	probs   []*transport.Problem
	solvers []*sweep.Solver
	patches int
	// trs are the transports this session owns, one per solver; the entry
	// is nil on wireInternal, where the solver makes its own.
	trs []comm.Transport
	rz  *netcomm.Rendezvous
}

// clusterSeq makes rendezvous cluster ids unique within the process.
var clusterSeq atomic.Int64

// openSession builds a session from a spec: the set-up a user pays.
// sockDir holds the Unix sockets and ring files of the uds/shm tiers.
// Rank 0's calls into each layer are recorded as children of parent.
func openSession(spec nodespec.Spec, wire, sockDir string, rec *recorder, op string, parent int) (*session, error) {
	s := &session{spec: spec}
	switch wire {
	case wireInternal:
		s.trs = []comm.Transport{nil}
	case wireMem:
		mt, err := comm.NewTransport(spec.Procs)
		if err != nil {
			return nil, err
		}
		s.trs = []comm.Transport{mt}
	default:
		var err error
		if s.trs, s.rz, err = joinRanks(spec.Procs, wire, sockDir, rec, op, parent); err != nil {
			return nil, err
		}
	}
	n := len(s.trs)
	s.probs = make([]*transport.Problem, n)
	s.solvers = make([]*sweep.Solver, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rr := rec
			if r != 0 {
				rr = nil
			}
			var d *mesh.Decomposition
			s.probs[r], d, s.solvers[r], errs[r] = buildRank(spec, s.trs[r], rr, op, parent)
			if r == 0 && d != nil {
				s.patches = d.NumPatches()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			s.abort()
			s.close()
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return s, nil
}

// buildRank is one rank's share of set-up: problem and decomposition from
// the spec, then the solver (patch graphs, SCC/lagging, priorities,
// programs).
func buildRank(spec nodespec.Spec, tr comm.Transport, rec *recorder, op string, parent int) (*transport.Problem, *mesh.Decomposition, *sweep.Solver, error) {
	t0 := time.Now()
	prob, d, err := nodespec.Build(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	t1 := time.Now()
	rec.add("nodespec.Build", op, parent, t0, t1)
	opts, err := nodespec.SolverOptions(spec, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	solver, err := sweep.NewSolver(prob, d, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	rec.add("sweep.NewSolver", op, parent, t1, time.Now())
	return prob, d, solver, nil
}

// solved is the outcome of one solve of a session.
type solved struct {
	res *transport.Result
	// hashes holds every rank's flux hash; they must all equal the oracle.
	hashes []string
	// start is when rank 0 began the solve, stamps when each of its source
	// iterations completed.
	start  time.Time
	stamps []time.Time
	// events are rank 0's phase events when the solve was traced.
	events []obs.Event
}

func (s solved) wall() time.Duration { return s.stamps[len(s.stamps)-1].Sub(s.start) }

// iterMs returns each iteration's wall time in ms.
func (s solved) iterMs() []float64 {
	out := make([]float64, len(s.stamps))
	prev := s.start
	for i, at := range s.stamps {
		out[i] = ms(at.Sub(prev))
		prev = at
	}
	return out
}

// solve runs one source iteration to the spec's tolerance on the
// persistent session, every rank concurrently, and observes rank 0. With
// traced set, rank 0 also runs the existing IterConfig.Tracer.
func (s *session) solve(ctx context.Context, traced bool) (solved, error) {
	n := len(s.solvers)
	results := make([]*transport.Result, n)
	errs := make([]error, n)
	out := solved{hashes: make([]string, n)}
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(0)
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := nodespec.IterConfig(s.spec)
			if r == 0 {
				cfg.Tracer = tracer
				cfg.Progress = func(transport.Progress) { out.stamps = append(out.stamps, time.Now()) }
				out.start = time.Now()
			}
			s.solvers[r].ResetSolve()
			results[r], errs[r] = transport.SourceIterateCtx(ctx, s.probs[r], s.solvers[r], cfg)
			if errs[r] != nil {
				// Peers blocked in a collective must fail fast.
				s.abort()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	for r, res := range results {
		out.hashes[r] = nodespec.FluxHash(res.Phi)
	}
	out.res = results[0]
	out.events = tracer.Events()
	return out, nil
}

// counters are the session's cumulative cost counters, cluster-wide.
type counters struct {
	rt runtime.Stats
	// wireBytes and frames are on-wire totals of the socket transports
	// (headers included); zero on in-memory transports.
	wireBytes, frames int64
	// computeCalls counts the last sweep's patch-program Compute calls.
	computeCalls int64
}

func (s *session) counters() counters {
	var c counters
	for _, sv := range s.solvers {
		st := sv.LastStats()
		accumulate(&c.rt, st.Cumulative, 1)
		c.computeCalls += st.ComputeCalls
	}
	// Rounds are collective: their count and wall are rank 0's, not a sum.
	cum := s.solvers[0].LastStats().Cumulative
	c.rt.RoundsRun, c.rt.Wall = cum.RoundsRun, cum.Wall
	for _, tr := range s.trs {
		if nt, ok := tr.(*netcomm.Transport); ok {
			ws := nt.WireStats()
			c.wireBytes += ws.BytesOut
			c.frames += ws.FramesSent
		}
	}
	return c
}

// accumulate adds sign × o's counters to c.
func accumulate(c *runtime.Stats, o runtime.Stats, sign int64) {
	c.RoundsRun += sign * o.RoundsRun
	c.Cycles += sign * o.Cycles
	c.LocalStreams += sign * o.LocalStreams
	c.RemoteStreams += sign * o.RemoteStreams
	c.BytesSent += sign * o.BytesSent
	c.Messages += sign * o.Messages
	c.BatchesSent += sign * o.BatchesSent
	c.StreamsBatched += sign * o.StreamsBatched
	c.WorkerBusy += time.Duration(sign) * o.WorkerBusy
	c.PackTime += time.Duration(sign) * o.PackTime
	c.UnpackTime += time.Duration(sign) * o.UnpackTime
	c.Wall += time.Duration(sign) * o.Wall
}

// setRuntime reports the runtime layer's metrics from the stats the
// solver already exports, summed over rounds (= source iterations) on
// threads = ranks × workers.
func (r *report) setRuntime(d runtime.Stats, threads int) {
	n := int(d.RoundsRun)
	rounds := float64(n)
	r.set("worker_busy_share", float64(d.WorkerBusy)/(float64(d.Wall)*float64(threads)), n)
	r.set("pack_ms_per_iter", ms(d.PackTime)/rounds, n)
	r.set("unpack_ms_per_iter", ms(d.UnpackTime)/rounds, n)
	r.set("cycles_per_iter", float64(d.Cycles)/rounds, n)
	r.set("remote_streams_per_iter", float64(d.RemoteStreams)/rounds, n)
	r.set("msgs_per_iter", float64(d.Messages)/rounds, n)
	r.set("streams_per_iter", float64(d.LocalStreams+d.RemoteStreams)/rounds, n)
	if d.BatchesSent > 0 {
		r.set("streams_per_batch", float64(d.StreamsBatched)/float64(d.BatchesSent), int(d.BatchesSent))
	}
}

// abort fails every socket transport so no rank stays blocked.
func (s *session) abort() {
	for _, tr := range s.trs {
		if nt, ok := tr.(*netcomm.Transport); ok {
			nt.Abort()
		}
	}
}

// close stops the solvers' workers, then closes the transports.
func (s *session) close() {
	for _, sv := range s.solvers {
		if sv != nil {
			sv.Close()
		}
	}
	closeRanks(s.trs, s.rz)
}
