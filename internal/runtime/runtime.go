// Package runtime is the patch-centric data-driven runtime system of paper
// §IV: it maps patch-programs onto a cluster of multicore processes with
// hybrid process+thread parallelism. Each process runs one master
// goroutine (stream routing, dynamic program placement, termination
// detection) and a set of worker goroutines (patch-program execution),
// mirroring Fig. 8. Processes communicate exclusively through packed
// byte messages over the comm transport.
//
// Two termination detectors are provided, as in §IV-C: the special
// workload-counter condition for algorithms whose total work is known in
// advance (sweeps), and Safra's general token algorithm [Misra/EWD 998
// family] for arbitrary data-driven programs.
//
// A Runtime is a persistent session: the paper's runtime is a long-lived
// service patch-programs are mapped onto, so processes, worker goroutines
// and the transport survive across rounds. RunRound executes the
// registered programs to global termination once; Reset rearms the
// termination detectors and reactivates every program for the next round
// (the caller restores program-local state first, e.g. rebinding a new
// emission source); Close tears the worker goroutines down. Run remains
// the single-shot convenience (one round, then Close).
package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/obs"
)

// TerminationMode selects the distributed termination detector.
type TerminationMode int

const (
	// Workload terminates when every process has exhausted its known
	// remaining workload (all programs must implement core.WorkloadReporter).
	Workload TerminationMode = iota
	// Safra runs Safra's token-ring termination detection and works for
	// any program set.
	Safra
)

func (m TerminationMode) String() string {
	if m == Safra {
		return "safra"
	}
	return "workload"
}

// Config configures a runtime instance.
type Config struct {
	// Procs is the number of MPI-style processes across the whole cluster.
	Procs int
	// Workers is the number of worker goroutines per process (the paper
	// reserves one core per process for the master; workers are the rest).
	Workers int
	// Termination selects the distributed termination detector.
	Termination TerminationMode
	// Aggregation configures outbound message aggregation: remote streams
	// coalesce into per-destination multi-stream frames instead of going
	// out one message per routed worker cycle.
	Aggregation AggregationConfig
	// Transport is the message-passing backend. Nil (the default) creates
	// an in-memory transport hosting all Procs ranks as goroutines of
	// this OS process; the runtime owns and closes it. A non-nil
	// transport (e.g. the TCP backend of internal/netcomm) must span
	// exactly Procs ranks, and the runtime hosts only its LocalRanks —
	// the caller retains ownership and closes the transport after Close.
	Transport comm.Transport
}

// Stats aggregates execution statistics across all processes. RunRound
// returns the statistics of one round; CumulativeStats sums every round
// of the session (its RoundsRun field counts the rounds).
type Stats struct {
	// RoundsRun counts the RunRound executions these statistics cover:
	// 1 for a per-round view, the session round count for the
	// cumulative view.
	RoundsRun int64
	// Cycles counts Alg. 1 executions of all programs.
	Cycles int64
	// LocalStreams / RemoteStreams count routed streams by destination.
	LocalStreams, RemoteStreams int64
	// BytesSent is the total packed bytes crossing process boundaries.
	BytesSent int64
	// Messages is the number of transport messages carrying streams.
	Messages int64
	// BatchesSent counts aggregated frames sent (0 when aggregation is
	// off). With aggregation working, BatchesSent < RemoteStreams.
	BatchesSent int64
	// StreamsBatched counts remote streams that left inside aggregated
	// frames (equals RemoteStreams when aggregation is on).
	StreamsBatched int64
	// FlushOnDeadline counts batch flushes forced by the idle/deadline
	// trigger rather than a full batch.
	FlushOnDeadline int64
	// StreamsPerBatch is the mean aggregation factor
	// (StreamsBatched/BatchesSent); 0 when no batches were sent.
	StreamsPerBatch float64
	// WorkerBusy sums the time workers spent executing program cycles.
	WorkerBusy time.Duration
	// PackTime / UnpackTime sum stream serialization costs in the masters.
	PackTime, UnpackTime time.Duration
	// Wall is the wall-clock span of Run.
	Wall time.Duration
}

// message kinds on the wire. Every data-lane message is round-stamped:
// kind byte, then the sender's 4-byte little-endian round counter, then
// the kind's payload. The stamp is what keeps the round-boundary
// staleness check armed on network backends, where a faster rank's
// early next-round messages would otherwise be indistinguishable from
// stale leftovers of a round that failed to drain.
const (
	msgStreams = byte(0x01)
	msgDone    = byte(0x02) // workload mode: proc finished
	msgTerm    = byte(0x03) // rank 0 broadcast: terminate
	msgToken   = byte(0x04) // Safra token
	msgFrame   = byte(0x05) // aggregated multi-stream frame
	tokenWhite = byte(0)
	tokenBlack = byte(1)

	// msgHeaderSize is the kind byte plus the round stamp.
	msgHeaderSize = 1 + 4
)

// stampHeader writes a message's kind and round stamp into its first
// msgHeaderSize bytes.
func stampHeader(buf []byte, kind byte, round uint32) {
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:msgHeaderSize], round)
}

// parseStamp splits a data-lane message into kind, round stamp and body.
func parseStamp(data []byte) (kind byte, round uint32, body []byte, err error) {
	if len(data) < msgHeaderSize {
		return 0, 0, nil, fmt.Errorf("runtime: short message (%d bytes)", len(data))
	}
	return data[0], binary.LittleEndian.Uint32(data[1:msgHeaderSize]), data[msgHeaderSize:], nil
}

// Runtime executes a set of registered patch-programs across Procs
// processes × Workers workers. Register programs, then either call Run
// once (single-shot) or drive a persistent session with
// RunRound / Reset / ... / Close: processes, worker goroutines and the
// transport stay alive between rounds.
type Runtime struct {
	cfg       Config
	transport comm.Transport
	// ownsTransport marks a runtime-created in-memory transport, closed by
	// Close; a caller-provided transport is left open.
	ownsTransport bool
	// procs holds the locally hosted processes (all Procs ranks with the
	// in-memory transport; this node's ranks with a network backend).
	procs []*process
	// byRank maps a rank to its local process, nil for remote ranks.
	byRank []*process
	// allLocal is true when every rank is hosted in this OS process.
	allLocal bool
	// routes resolves a stream target in one lookup: the owning rank of
	// every registered program and, for locally hosted ranks, the program's
	// state in its home process. Written by Register only, i.e. before the
	// session starts; read-only (and so lock-free) from then on.
	routes map[core.ProgramKey]route

	// started flips when the first round launches the worker goroutines;
	// registration closes at that point.
	started bool
	// closed flips once Close has torn the workers down.
	closed bool
	// broken marks a session whose last round returned an error: its
	// processes may hold undrained state, so further rounds are refused.
	broken bool
	// needReset is set after every completed round; Reset clears it.
	needReset bool

	rounds int64
	last   Stats // most recent round
	cum    Stats // session totals across rounds

	// m holds the obs handles, resolved from obs.Default() at New; all
	// folding happens once per round (see metrics.go), never per message.
	m runtimeMetrics
}

// route is one entry of the routing table: where a program lives.
type route struct {
	rank int
	// ps is nil when rank is hosted by another OS process.
	ps *progState
}

// New creates a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("runtime: need >= 1 proc (got %d)", cfg.Procs)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("runtime: need >= 1 worker per proc (got %d)", cfg.Workers)
	}
	rt := &Runtime{
		cfg:    cfg,
		routes: make(map[core.ProgramKey]route),
		m:      newRuntimeMetrics(obs.Default()),
	}
	if cfg.Transport != nil {
		if n := cfg.Transport.NumRanks(); n != cfg.Procs {
			return nil, fmt.Errorf("runtime: transport spans %d ranks, config wants %d procs", n, cfg.Procs)
		}
		rt.transport = cfg.Transport
	} else {
		tr, err := comm.NewTransport(cfg.Procs)
		if err != nil {
			return nil, err
		}
		rt.transport = tr
		rt.ownsTransport = true
	}
	local := rt.transport.LocalRanks()
	if len(local) == 0 {
		return nil, fmt.Errorf("runtime: transport hosts no local ranks")
	}
	rt.byRank = make([]*process, cfg.Procs)
	rt.procs = make([]*process, 0, len(local))
	for _, r := range local {
		if r < 0 || r >= cfg.Procs {
			return nil, fmt.Errorf("runtime: transport local rank %d out of range [0,%d)", r, cfg.Procs)
		}
		if rt.byRank[r] != nil {
			return nil, fmt.Errorf("runtime: transport lists local rank %d twice", r)
		}
		p := newProcess(rt, r)
		rt.byRank[r] = p
		rt.procs = append(rt.procs, p)
	}
	rt.allLocal = len(rt.procs) == cfg.Procs
	return rt, nil
}

// Register places program key on process rank with the given scheduling
// priority (larger runs earlier). All programs start active. Every node
// of a multi-process cluster registers the complete program set with
// identical placement (that is what routes remote streams); only the
// locally hosted ranks actually instantiate and run their programs.
func (rt *Runtime) Register(key core.ProgramKey, prog core.PatchProgram, prio int64, rank int) error {
	if rt.started {
		return fmt.Errorf("runtime: Register after the session started")
	}
	if rank < 0 || rank >= rt.cfg.Procs {
		return fmt.Errorf("runtime: program %v placed on invalid rank %d", key, rank)
	}
	if _, dup := rt.routes[key]; dup {
		return fmt.Errorf("runtime: duplicate program %v", key)
	}
	if rt.cfg.Termination == Workload {
		if _, ok := prog.(core.WorkloadReporter); !ok {
			return fmt.Errorf("runtime: program %v does not implement WorkloadReporter; use Safra termination", key)
		}
	}
	r := route{rank: rank}
	if p := rt.byRank[rank]; p != nil {
		r.ps = p.register(key, prog, prio)
	}
	rt.routes[key] = r
	return nil
}

// Run executes all programs to global termination once and closes the
// session. For multi-round sessions use RunRound / Reset / Close.
func (rt *Runtime) Run() (Stats, error) { return rt.RunCtx(context.Background()) }

// RunCtx is Run with cooperative cancellation (see RunRoundCtx).
func (rt *Runtime) RunCtx(ctx context.Context) (Stats, error) {
	if rt.started {
		return Stats{}, fmt.Errorf("runtime: Run called twice (use RunRound for multi-round sessions)")
	}
	st, err := rt.RunRoundCtx(ctx)
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	return st, err
}

// RunRound executes all registered programs to global termination and
// returns the round's statistics. The first call launches the worker
// goroutines; they stay parked between rounds. Reset must be called
// between rounds.
func (rt *Runtime) RunRound() (Stats, error) { return rt.RunRoundCtx(context.Background()) }

// RunRoundCtx is RunRound with cooperative cancellation: every local
// master loop watches the context and abandons the round with ctx.Err()
// once it is done. A cancelled round leaves the session broken (its
// processes may hold undrained state) — the caller's only further move
// is Close, which unparks and joins the worker goroutines. Cancellation
// is local: remote ranks of a multi-process cluster observe it through
// the transport's failure propagation, not through this context.
func (rt *Runtime) RunRoundCtx(ctx context.Context) (Stats, error) {
	if rt.closed {
		return Stats{}, fmt.Errorf("runtime: RunRound on closed session")
	}
	if rt.broken {
		return Stats{}, fmt.Errorf("runtime: session broken by an earlier round error")
	}
	if rt.needReset {
		return Stats{}, fmt.Errorf("runtime: Reset required between rounds")
	}
	if !rt.started {
		rt.started = true
		for _, p := range rt.procs {
			p.startWorkers()
		}
	}
	start := time.Now()
	for _, p := range rt.procs {
		p.rounds <- ctx
	}
	// Every master reports back before the round is over; the first error
	// in rank order is the round's.
	var err error
	for _, p := range rt.procs {
		if perr := <-p.roundDone; perr != nil && err == nil {
			err = perr
		}
	}
	st := Stats{RoundsRun: 1}
	for _, p := range rt.procs {
		st.add(p.collectRound())
	}
	st.Wall = time.Since(start)
	rt.m.observeRound(st)
	rt.rounds++
	rt.needReset = true
	rt.last = st
	rt.cum.add(st)
	rt.cum.RoundsRun = rt.rounds
	if err != nil {
		rt.broken = true
	}
	return st, err
}

// Reset rearms the session for another round: every registered program is
// reactivated (the caller must first restore the programs themselves to a
// runnable state — e.g. rebind a new emission source), the termination
// detectors are reinitialized, and per-round statistics are cleared.
// Program Init calls are NOT repeated: initialization happened in round 1
// and program-local state is owned by the caller between rounds.
func (rt *Runtime) Reset() error {
	if rt.closed {
		return fmt.Errorf("runtime: Reset on closed session")
	}
	if rt.broken {
		return fmt.Errorf("runtime: Reset on session broken by an earlier round error")
	}
	for _, p := range rt.procs {
		if err := p.resetRound(); err != nil {
			return err
		}
	}
	rt.needReset = false
	return nil
}

// Close shuts the master and worker goroutines down and ends the session. A
// runtime-owned (in-memory) transport is closed too; a caller-provided
// transport stays open for the caller's own collectives and teardown. It
// is idempotent; statistics remain readable afterwards.
func (rt *Runtime) Close() error {
	if rt.closed {
		return nil
	}
	rt.closed = true
	if rt.started {
		for _, p := range rt.procs {
			p.mu.Lock()
			p.shutdown = true
			for _, w := range p.workers {
				w.cond.Broadcast()
			}
			p.mu.Unlock()
			close(p.rounds)
		}
		for _, p := range rt.procs {
			p.wg.Wait()
			p.ticker.Stop()
		}
	}
	if rt.ownsTransport {
		return rt.transport.Close()
	}
	return nil
}

// RoundsRun returns the number of completed rounds in this session.
func (rt *Runtime) RoundsRun() int64 { return rt.rounds }

// LastRoundStats returns the statistics of the most recent round.
func (rt *Runtime) LastRoundStats() Stats { return rt.last }

// CumulativeStats returns statistics summed over every round of the
// session; RoundsRun carries the round count.
func (rt *Runtime) CumulativeStats() Stats { return rt.cum }

// add folds the counters of o into c (RoundsRun excluded — the caller
// owns the round count of each view) and refreshes the derived
// StreamsPerBatch mean. Shared by the per-round and cumulative views so
// a new Stats field only needs one summation site.
func (c *Stats) add(o Stats) {
	c.Cycles += o.Cycles
	c.LocalStreams += o.LocalStreams
	c.RemoteStreams += o.RemoteStreams
	c.BytesSent += o.BytesSent
	c.Messages += o.Messages
	c.BatchesSent += o.BatchesSent
	c.StreamsBatched += o.StreamsBatched
	c.FlushOnDeadline += o.FlushOnDeadline
	c.WorkerBusy += o.WorkerBusy
	c.PackTime += o.PackTime
	c.UnpackTime += o.UnpackTime
	c.Wall += o.Wall
	if c.BatchesSent > 0 {
		c.StreamsPerBatch = float64(c.StreamsBatched) / float64(c.BatchesSent)
	}
}

// progState tracks one patch-program inside its home process.
type progState struct {
	key  core.ProgramKey
	prog core.PatchProgram
	prio int64
	seq  int64
	// inHead and inTail delimit the program's inbox: its delivered,
	// not yet consumed streams, a list threaded through the process's
	// inbox arena (-1 when empty).
	inHead, inTail int32
	active         bool
	queued         bool
	running        bool
	initialized    bool
	worker         int // owning worker, -1 when unassigned
	index          int // heap index
}

// inboxNode is one delivered stream in a process's inbox arena.
type inboxNode struct {
	s    core.Stream
	next int32 // the next node of the same inbox or of the free list, -1 at the end
}

type process struct {
	rt   *Runtime
	rank int
	ep   comm.Endpoint

	// batchers aggregates outbound streams per destination rank; nil when
	// aggregation is disabled. Only the master goroutine touches them.
	batchers []*StreamBatcher

	mu sync.Mutex
	// order lists the programs in registration order: every walk over all
	// programs uses it, so the initial program→worker assignment (and with
	// it the schedule) is deterministic.
	order   []*progState
	workers []*workerQueue
	// outStreams holds the streams worker cycles produced and the master
	// has not routed yet, back to back in cycle order; outCycles holds one
	// stream count per such cycle, so the master routes each cycle's
	// output as one batch. Both rings keep their capacity across rounds.
	outStreams comm.Ring[core.Stream]
	outCycles  comm.Ring[int]
	// nodes is the inbox arena: the delivered streams of every program,
	// one list per program threaded through a single slice, with freeNode
	// heading the list of unused nodes. It grows (by doubling) to the
	// process's in-flight peak once, instead of one buffer per program
	// each growing to its own.
	nodes    []inboxNode
	freeNode int32
	// activePrograms counts programs in Active state.
	activePrograms int
	// busyWorkers counts workers between popping a program and queueing
	// their produced streams for the master — passive() must see them.
	busyWorkers int
	shutdown    bool

	// outReady carries a token to the master after a worker queued output
	// or left the process without active programs or busy workers
	// (capacity 1: one token stands for every such cycle since the master
	// last looked).
	outReady chan struct{}

	// rounds hands the persistent master goroutine (roundLoop) the
	// context of each round, roundDone returns the round's error. Close
	// closes rounds, which ends roundLoop.
	rounds    chan context.Context
	roundDone chan error
	// ticker wakes an idle master every tick, a backstop to the wake-ups
	// the master waits on (outReady, the endpoint's Notify, the round's
	// context); no termination check waits for it. Created once per
	// session (startWorkers), reset at every round start, stopped by
	// Close.
	ticker *time.Ticker
	tick   time.Duration

	// Safra state.
	safraColor   byte
	safraCounter int64 // stream messages sent - received
	holdingToken bool
	tokenColor   byte
	tokenCount   int64
	probedOnce   bool // rank 0: a full token round has completed

	// Workload-mode state (rank 0 only).
	doneReports map[int]bool
	sentDone    bool

	// round is the 1-based number of the round in progress (or, between
	// rounds, of the round just finished); it stamps every outbound
	// data-lane message. future stashes early arrivals whose stamp is
	// ahead of the current round (a faster peer over a network backend);
	// replay holds the stash promoted at Reset, consumed before the
	// endpoint queue at the next round's start. Both are only touched by
	// the master loop and the between-rounds Reset, never concurrently.
	round  uint32
	future comm.Ring[comm.Message]
	replay comm.Ring[comm.Message]

	// perRank is routeNext's scratch: the remote streams of one cycle
	// grouped by destination rank (unbatched path). inbound is
	// handleMessage's: the streams decoded from one message. Master
	// goroutine only.
	perRank [][]core.Stream
	inbound []core.Stream

	stats Stats

	wg sync.WaitGroup
}

type workerQueue struct {
	id   int
	heap progHeap
	cond *sync.Cond
	load int // queued + running programs assigned here
	busy time.Duration
}

func newProcess(rt *Runtime, rank int) *process {
	p := &process{
		rt:          rt,
		rank:        rank,
		ep:          rt.transport.Endpoint(rank),
		outReady:    make(chan struct{}, 1),
		rounds:      make(chan context.Context),
		roundDone:   make(chan error),
		tick:        masterTick,
		doneReports: make(map[int]bool),
		safraColor:  tokenWhite,
		round:       1,
		perRank:     make([][]core.Stream, rt.cfg.Procs),
		freeNode:    -1,
	}
	p.workers = make([]*workerQueue, rt.cfg.Workers)
	for w := range p.workers {
		p.workers[w] = &workerQueue{id: w, cond: sync.NewCond(&p.mu)}
	}
	if rt.cfg.Aggregation.Enabled && rt.cfg.Procs > 1 {
		p.batchers = make([]*StreamBatcher, rt.cfg.Procs)
		for r := 0; r < rt.cfg.Procs; r++ {
			if r != rank {
				p.batchers[r] = NewStreamBatcher(r, rt.cfg.Aggregation)
			}
		}
	}
	return p
}

func (p *process) register(key core.ProgramKey, prog core.PatchProgram, prio int64) *progState {
	ps := &progState{key: key, prog: prog, prio: prio, seq: int64(len(p.order)), active: true, worker: -1, inHead: -1, inTail: -1}
	p.order = append(p.order, ps)
	p.activePrograms++
	return ps
}

// masterTick is the period of the master's ticker.
const masterTick = 200 * time.Microsecond

// startWorkers launches the persistent master and worker goroutines and
// the master's ticker. Called once per session, before the first round.
func (p *process) startWorkers() {
	p.ticker = time.NewTicker(p.tick)
	p.wg.Add(1 + len(p.workers))
	go p.roundLoop()
	for _, w := range p.workers {
		go p.workerLoop(w)
	}
}

// roundLoop is the persistent master goroutine: it runs every round
// RunRoundCtx hands it until Close closes p.rounds.
func (p *process) roundLoop() {
	defer p.wg.Done()
	for ctx := range p.rounds {
		p.roundDone <- p.runRound(ctx)
	}
}

// assignInitial distributes the initially active programs evenly across
// the workers (§IV-B), round-robin in registration order.
func (p *process) assignInitial() {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := 0
	for _, ps := range p.order {
		if !ps.active {
			continue
		}
		p.assignLocked(ps, p.workers[i%len(p.workers)])
		i++
	}
}

// runRound is the master loop of one process (paper Fig. 8) for one
// round: it distributes the active programs, drives execution to the
// termination decision, and leaves the workers parked for the next round.
func (p *process) runRound(ctx context.Context) error {
	p.assignInitial()

	// Rank 0 owns the Safra token initially.
	if p.rt.cfg.Termination == Safra && p.rank == 0 {
		p.holdingToken = true
		p.tokenColor = tokenWhite
		p.tokenCount = 0
	}

	var err error
	p.ticker.Reset(p.tick)
masterLoop:
	for {
		// Cooperative cancellation: abandon the round as soon as the
		// context is done, even while the master is busy.
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("runtime: rank %d round cancelled: %w", p.rank, cerr)
			break masterLoop
		}
		progress := false
		// Drain the transport — the early arrivals stashed at the last
		// round boundary first (they arrived before anything still queued
		// on the endpoint, so pairwise FIFO order is preserved).
		for {
			m, ok := p.replay.Pop()
			if !ok {
				m, ok = p.ep.TryRecv()
			}
			if !ok {
				break
			}
			progress = true
			stop, herr := p.handleMessage(m)
			if herr != nil {
				err = herr
				break masterLoop
			}
			if stop {
				break masterLoop
			}
		}
		// Route the worker cycles' output.
		for {
			routed, rerr := p.routeNext()
			if rerr != nil {
				err = rerr
				break masterLoop
			}
			if !routed {
				break
			}
			progress = true
		}
		// Deadline flushes run every iteration, not only when idle: a busy
		// master must still honor the FlushInterval liveness bound so
		// downstream ranks are never starved behind a half-full batch.
		if p.batchers != nil {
			flushed, ferr := p.flushExpired(time.Now())
			if ferr != nil {
				err = ferr
				break masterLoop
			}
			if flushed {
				progress = true
			}
		}
		if !progress {
			// Quiescent: flush everything pending so termination detection
			// never waits on a batch that will not fill.
			if p.batchers != nil {
				flushed, ferr := p.flushQuiescent()
				if ferr != nil {
					err = ferr
					break masterLoop
				}
				if flushed {
					continue masterLoop
				}
			}
			if stop := p.checkTermination(); stop {
				break masterLoop
			}
			// A dead transport can never terminate this round: a waiting
			// rank consumes only TryRecv/Notify, which cannot report a
			// peer failure, so probe the terminal state before parking.
			if terr := p.ep.Err(); terr != nil {
				err = fmt.Errorf("runtime: rank %d transport failed mid-round: %w", p.rank, terr)
				break masterLoop
			}
			// Idle wait on any event source.
			select {
			case <-p.outReady:
			case <-p.ep.Notify():
			case <-ctx.Done():
			case <-p.ticker.C:
			}
		}
	}

	// Workers stay parked on their condvars for the next round. On a clean
	// termination they are idle (passive() saw no queued or running work)
	// and no output awaits routing; on error the session is marked broken
	// and only Close remains.
	p.mu.Lock()
	for _, w := range p.workers {
		p.stats.WorkerBusy += w.busy
		w.busy = 0
	}
	p.mu.Unlock()
	return err
}

// collectRound returns the round's statistics and zeroes them for the
// next round. Called between rounds, when the master is stopped and the
// workers are parked.
func (p *process) collectRound() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	p.stats = Stats{}
	return st
}

// resetRound rearms one process for the next round: every program is
// reactivated, the termination detectors reinitialize, and leftover
// round state is verified to be clean (a stale message or half-full
// batcher means the previous round did not terminate properly).
func (p *process) resetRound() error {
	// Round-boundary staleness check, armed on every backend: data-lane
	// messages carry their sender's round stamp, so a message still
	// pending here from the round just finished (or earlier) is
	// necessarily stale — that round terminated without draining it.
	// Early arrivals stamped with a later round (a faster peer over a
	// network backend that legitimately began its next round) are kept
	// and replayed at the next round's start.
	for {
		m, ok := p.ep.TryRecv()
		if !ok {
			break
		}
		_, round, _, err := parseStamp(m.Data)
		if err != nil {
			return fmt.Errorf("runtime: rank %d at round-%d boundary: %w", p.rank, p.round, err)
		}
		if round <= p.round {
			return fmt.Errorf("runtime: rank %d has a stale round-%d message from rank %d undrained at the round-%d boundary",
				p.rank, round, m.From, p.round)
		}
		p.future.Push(m)
		p.rt.m.stashed.Inc()
	}
	// Promote the stash: it becomes the next round's first input. Sanity:
	// nothing may still sit in replay — the round consumed it all — so the
	// two rings simply trade places.
	if n := p.replay.Len(); n > 0 {
		return fmt.Errorf("runtime: rank %d has %d unreplayed messages at round boundary", p.rank, n)
	}
	p.replay, p.future = p.future, p.replay
	p.round++
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.busyWorkers > 0 {
		return fmt.Errorf("runtime: rank %d has %d busy workers at round boundary", p.rank, p.busyWorkers)
	}
	if n := p.outCycles.Len(); n > 0 {
		return fmt.Errorf("runtime: rank %d has %d unrouted worker cycles at round boundary", p.rank, n)
	}
	for _, b := range p.batchers {
		if b != nil && b.Pending() > 0 {
			return fmt.Errorf("runtime: rank %d has %d unflushed batched streams at round boundary", p.rank, b.Pending())
		}
	}
	for _, ps := range p.order {
		if ps.inHead >= 0 {
			return fmt.Errorf("runtime: program %v has undelivered streams at round boundary", ps.key)
		}
		ps.active = true
		ps.queued = false
		ps.running = false
		ps.worker = -1
	}
	p.activePrograms = len(p.order)
	// Safra: a fresh round starts all-white with balanced counters and the
	// token back at rank 0 (runRound hands it out).
	p.safraColor = tokenWhite
	p.safraCounter = 0
	p.holdingToken = false
	p.tokenColor = tokenWhite
	p.tokenCount = 0
	p.probedOnce = false
	// Workload mode: done reports are per round.
	clear(p.doneReports)
	p.sentDone = false
	return nil
}

// assignLocked queues program ps on worker w. Caller holds p.mu.
func (p *process) assignLocked(ps *progState, w *workerQueue) {
	ps.worker = w.id
	ps.queued = true
	w.load++
	w.heap.push(ps)
	w.cond.Signal()
}

// lightestWorker returns the worker with the smallest load. Caller holds
// p.mu.
func (p *process) lightestWorker() *workerQueue {
	best := p.workers[0]
	for _, w := range p.workers[1:] {
		if w.load < best.load {
			best = w
		}
	}
	return best
}

// routeNext routes the output of the oldest worker cycle awaiting routing
// and reports whether there was one: local targets are delivered directly;
// remote targets go straight into the destination's batcher (aggregating
// path) or are grouped per rank and sent immediately, in ascending rank
// order.
func (p *process) routeNext() (bool, error) {
	p.mu.Lock()
	n, ok := p.outCycles.Pop()
	if !ok {
		p.mu.Unlock()
		return false, nil
	}
	var now time.Time
	if p.batchers != nil {
		now = time.Now()
	} else {
		defer p.dropPerRank()
	}
	for ; n > 0; n-- {
		s, _ := p.outStreams.Pop()
		r, ok := p.rt.routes[s.Tgt()]
		if !ok {
			p.mu.Unlock()
			return true, fmt.Errorf("runtime: stream %v -> %v targets unregistered program", s.Src(), s.Tgt())
		}
		if r.rank == p.rank {
			p.stats.LocalStreams++
			p.deliverLocked(r.ps, s)
			continue
		}
		p.stats.RemoteStreams++
		if p.batchers != nil {
			p.batchers[r.rank].Add(now, s)
			continue
		}
		p.perRank[r.rank] = append(p.perRank[r.rank], s)
	}
	p.mu.Unlock()
	return true, p.sendRouted()
}

// sendRouted sends what routeNext left for the wire: full batches on the
// aggregating path, else every rank's group of the cycle's streams.
func (p *process) sendRouted() error {
	if p.batchers != nil {
		// Flush outside the lock: a batch may overshoot its trigger by the
		// streams of this one call, which the flush policy tolerates.
		for _, b := range p.batchers {
			if b != nil && b.Full() {
				if err := p.flushBatcher(b, FlushSize); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for rank, batch := range p.perRank {
		if len(batch) == 0 {
			continue
		}
		t0 := time.Now()
		// Pooled buffer: the transport (or the receiving consumer, for
		// in-memory and self-sends) recycles it — steady-state rounds stop
		// allocating per message.
		buf := comm.GetBuffer(core.EncodedSize(batch) + msgHeaderSize)[:msgHeaderSize]
		stampHeader(buf, msgStreams, p.round)
		buf = core.EncodeStreams(buf, batch)
		// The payloads are copied into the message: they were handed over at
		// Output and nobody else holds them, so the remote route ends here.
		releasePayloads(batch)
		p.stats.PackTime += time.Since(t0)
		p.stats.BytesSent += int64(len(buf))
		p.stats.Messages++
		p.safraCounter++ // Safra: sends increment the deficit counter
		if err := comm.SendPooled(p.ep, rank, buf); err != nil {
			return err
		}
	}
	return nil
}

// releasePayloads recycles the payloads of streams that have been packed
// into a message and clears the entries, so a released buffer cannot be
// reached (let alone released again) through the slice.
func releasePayloads(streams []core.Stream) {
	for i := range streams {
		comm.PutBuffer(streams[i].Payload)
		streams[i] = core.Stream{}
	}
}

// dropPerRank empties the routing scratch on every way out of
// routeNext; the kept backing arrays must not pin the payloads.
func (p *process) dropPerRank() {
	for r, batch := range p.perRank {
		clear(batch)
		p.perRank[r] = batch[:0]
	}
}

// flushBatcher sends b's pending streams as one aggregated frame.
func (p *process) flushBatcher(b *StreamBatcher, reason FlushReason) error {
	if b.Pending() == 0 {
		return nil
	}
	t0 := time.Now()
	buf := comm.GetBuffer(b.PendingBytes() + msgHeaderSize)[:msgHeaderSize]
	stampHeader(buf, msgFrame, p.round)
	buf, n := b.Flush(buf)
	p.stats.PackTime += time.Since(t0)
	p.stats.BytesSent += int64(len(buf))
	p.stats.Messages++
	p.stats.BatchesSent++
	p.stats.StreamsBatched += int64(n)
	if reason == FlushDeadline {
		p.stats.FlushOnDeadline++
	}
	p.safraCounter++ // Safra: sends increment the deficit counter
	return comm.SendPooled(p.ep, b.Dest(), buf)
}

// flushExpired flushes every batch whose oldest stream aged past the
// flush deadline. Reports whether any frame went out.
func (p *process) flushExpired(now time.Time) (flushed bool, err error) {
	for _, b := range p.batchers {
		if b != nil && b.Expired(now) {
			if err := p.flushBatcher(b, FlushDeadline); err != nil {
				return flushed, err
			}
			flushed = true
		}
	}
	return flushed, nil
}

// flushQuiescent flushes everything pending once the process has no
// runnable work left, so remote ranks (and the termination detector)
// never wait on a batch that cannot fill.
func (p *process) flushQuiescent() (flushed bool, err error) {
	p.mu.Lock()
	quiescent := p.activePrograms == 0 && p.busyWorkers == 0 && p.outCycles.Len() == 0
	p.mu.Unlock()
	if !quiescent {
		return false, nil
	}
	for _, b := range p.batchers {
		if b != nil && b.Pending() > 0 {
			if err := p.flushBatcher(b, FlushDeadline); err != nil {
				return flushed, err
			}
			flushed = true
		}
	}
	return flushed, nil
}

// pendingBatched returns the number of streams buffered in outbound
// batchers (0 when aggregation is off).
func (p *process) pendingBatched() int {
	n := 0
	for _, b := range p.batchers {
		if b != nil {
			n += b.Pending()
		}
	}
	return n
}

// deliverRemote validates and delivers the streams decoded from one
// inbound message (Safra bookkeeping is per message and stays with the
// caller).
func (p *process) deliverRemote(streams []core.Stream) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range streams {
		r, ok := p.rt.routes[streams[i].Tgt()]
		if !ok || r.rank != p.rank {
			return fmt.Errorf("runtime: rank %d received stream for foreign program %v", p.rank, streams[i].Tgt())
		}
		p.stats.LocalStreams++
		p.deliverLocked(r.ps, streams[i])
	}
	return nil
}

// deliverLocked appends a stream to its target program's inbox and
// activates/queues it. Caller holds p.mu.
func (p *process) deliverLocked(ps *progState, s core.Stream) {
	if p.freeNode < 0 {
		p.growNodes()
	}
	i := p.freeNode
	p.freeNode = p.nodes[i].next
	p.nodes[i] = inboxNode{s: s, next: -1}
	if ps.inTail < 0 {
		ps.inHead = i
	} else {
		p.nodes[ps.inTail].next = i
	}
	ps.inTail = i
	if !ps.active {
		ps.active = true
		p.activePrograms++
		// Dynamic placement: a re-activated program goes to the lightest
		// worker (paper §IV-B).
		ps.worker = -1
	}
	if !ps.queued && !ps.running {
		w := p.workers[0]
		if ps.worker >= 0 {
			w = p.workers[ps.worker]
		} else {
			w = p.lightestWorker()
		}
		p.assignLocked(ps, w)
	}
}

// growNodes doubles the inbox arena (its first size is one node per
// program) and threads the new nodes onto the free list, which is empty
// whenever it is called. Caller holds p.mu.
func (p *process) growNodes() {
	n := len(p.nodes)
	nodes := make([]inboxNode, max(2*n, len(p.order), minNodes))
	copy(nodes, p.nodes)
	for i := n; i < len(nodes); i++ {
		nodes[i].next = int32(i + 1)
	}
	nodes[len(nodes)-1].next = -1
	p.nodes, p.freeNode = nodes, int32(n)
}

// minNodes is the smallest inbox arena.
const minNodes = 64

// takeInbox appends ps's inbox, in delivery order, to dst and returns its
// nodes to the arena's free list. Caller holds p.mu.
func (p *process) takeInbox(ps *progState, dst []core.Stream) []core.Stream {
	for i := ps.inHead; i >= 0; {
		nd := &p.nodes[i]
		dst = append(dst, nd.s)
		next := nd.next
		*nd = inboxNode{next: p.freeNode}
		p.freeNode = i
		i = next
	}
	ps.inHead, ps.inTail = -1, -1
	return dst
}

// handleMessage processes one transport message. Returns stop=true when
// the process should exit its master loop. A message stamped with a
// later round than the one in progress is stashed for that round (a
// faster peer already moved on); one stamped with an earlier round is a
// staleness bug and errors the round out.
func (p *process) handleMessage(m comm.Message) (stop bool, err error) {
	kind, round, body, err := parseStamp(m.Data)
	if err != nil {
		return false, err
	}
	if round > p.round {
		p.future.Push(m)
		p.rt.m.stashed.Inc()
		return false, nil
	}
	// Every path below consumes the message: recycle its transport buffer
	// once decoded (the decoders copy payloads out). Stashed
	// future messages recycle when their round consumes them here.
	defer comm.PutBuffer(m.Data)
	if round < p.round {
		return false, fmt.Errorf("runtime: rank %d received a stale round-%d message from rank %d in round %d",
			p.rank, round, m.From, p.round)
	}
	switch kind {
	case msgStreams, msgFrame:
		// Decode into the master's own scratch; the payloads are pooled
		// copies their target programs release. The scratch must not pin
		// them past delivery.
		t0 := time.Now()
		decode := core.AppendDecodedStreams
		if kind == msgFrame {
			decode = core.AppendDecodedFrame
		}
		streams, derr := decode(p.inbound[:0], body)
		p.stats.UnpackTime += time.Since(t0)
		if derr != nil {
			return false, derr
		}
		p.safraCounter--
		p.safraColor = tokenBlack
		derr = p.deliverRemote(streams)
		clear(streams)
		p.inbound = streams[:0]
		return false, derr
	case msgDone:
		if p.rank != 0 {
			return false, fmt.Errorf("runtime: done report reached rank %d", p.rank)
		}
		p.doneReports[m.From] = true
	case msgTerm:
		return true, nil
	case msgToken:
		if len(body) != 9 {
			return false, fmt.Errorf("runtime: malformed token")
		}
		p.holdingToken = true
		p.tokenColor = body[0]
		p.tokenCount = int64(binary.LittleEndian.Uint64(body[1:]))
	default:
		return false, fmt.Errorf("runtime: unknown message kind %#x", kind)
	}
	return false, nil
}

// passive reports whether this process has no runnable work: all programs
// inactive, no worker mid-cycle, no undrained results.
func (p *process) passive() bool {
	if p.ep.Pending() > 0 {
		return false
	}
	// Streams waiting in outbound batchers are in-flight work: they must
	// flush (flushQuiescent does this once quiescent) before termination.
	if p.pendingBatched() > 0 {
		return false
	}
	// A worker queues its cycle's output and stops counting as busy in one
	// critical section, so one look under the lock sees either the busy
	// worker or the output still to route — never neither.
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.activePrograms == 0 && p.busyWorkers == 0 && p.outCycles.Len() == 0
	for _, w := range p.workers {
		idle = idle && w.load == 0
	}
	return idle
}

// checkTermination runs the configured detector; returns true when the
// process should stop. Only called when the master made no progress.
func (p *process) checkTermination() bool {
	switch p.rt.cfg.Termination {
	case Workload:
		return p.checkWorkloadTermination()
	case Safra:
		return p.checkSafraTermination()
	}
	return false
}

func (p *process) checkWorkloadTermination() bool {
	if !p.passive() {
		return false
	}
	p.mu.Lock()
	rem := int64(0)
	for _, ps := range p.order {
		rem += ps.prog.(core.WorkloadReporter).RemainingWork()
	}
	p.mu.Unlock()
	if rem != 0 {
		return false
	}
	if p.rank != 0 {
		if !p.sentDone {
			p.sentDone = true
			_ = comm.SendPooled(p.ep, 0, p.stamped(msgDone))
		}
		return false // wait for msgTerm
	}
	// Rank 0: terminate once every other rank reported done.
	if len(p.doneReports) == p.rt.cfg.Procs-1 {
		for r := 1; r < p.rt.cfg.Procs; r++ {
			_ = comm.SendPooled(p.ep, r, p.stamped(msgTerm))
		}
		return true
	}
	return false
}

// stamped returns a payload-free data-lane message of the given kind,
// round-stamped for the current round. The buffer is pool-backed: send
// it with comm.SendPooled so it recycles after the wire (or the
// receiving consumer).
func (p *process) stamped(kind byte) []byte {
	buf := comm.GetBuffer(msgHeaderSize)[:msgHeaderSize]
	stampHeader(buf, kind, p.round)
	return buf
}

func (p *process) checkSafraTermination() bool {
	if !p.holdingToken || !p.passive() {
		return false
	}
	if p.rank == 0 {
		// Evaluate the returned token (or the initial one).
		if p.tokenColor == tokenWhite && p.safraColor == tokenWhite && p.tokenCount+p.safraCounter == 0 && p.probedOnce {
			for r := 1; r < p.rt.cfg.Procs; r++ {
				_ = comm.SendPooled(p.ep, r, p.stamped(msgTerm))
			}
			return true
		}
		if p.rt.cfg.Procs == 1 {
			// Single proc: passive with counter 0 means done.
			if p.safraCounter == 0 {
				return true
			}
			return false
		}
		// Re-initiate a white probe.
		p.holdingToken = false
		p.probedOnce = true
		p.safraColor = tokenWhite
		p.sendToken((p.rank+1)%p.rt.cfg.Procs, tokenWhite, 0)
		return false
	}
	// Forward the token, folding in our counter and color.
	color := p.tokenColor
	if p.safraColor == tokenBlack {
		color = tokenBlack
	}
	p.holdingToken = false
	p.safraColor = tokenWhite
	p.sendToken((p.rank+1)%p.rt.cfg.Procs, color, p.tokenCount+p.safraCounter)
	return false
}

func (p *process) sendToken(to int, color byte, count int64) {
	buf := comm.GetBuffer(msgHeaderSize + 9)[:msgHeaderSize+9]
	stampHeader(buf, msgToken, p.round)
	buf[msgHeaderSize] = color
	binary.LittleEndian.PutUint64(buf[msgHeaderSize+1:], uint64(count))
	_ = comm.SendPooled(p.ep, to, buf)
}

// workerLoop is one worker goroutine: pop the highest-priority active
// program, run one Alg. 1 cycle, queue produced streams for the master.
func (p *process) workerLoop(w *workerQueue) {
	defer p.wg.Done()
	// The worker's own scratch, reused every cycle: inbox holds the streams
	// of the inbox being consumed (copied out of the arena under the lock),
	// outs the streams the cycle outputs (copied into outStreams under it).
	var inbox, outs []core.Stream
	for {
		p.mu.Lock()
		for w.heap.Len() == 0 && !p.shutdown {
			w.cond.Wait()
		}
		if p.shutdown {
			p.mu.Unlock()
			return
		}
		ps := w.heap.pop()
		ps.queued = false
		ps.running = true
		p.busyWorkers++
		inbox = p.takeInbox(ps, inbox)
		p.mu.Unlock()

		t0 := time.Now()
		if !ps.initialized {
			ps.prog.Init()
			ps.initialized = true
		}
		for _, s := range inbox {
			ps.prog.Input(s)
		}
		ps.prog.Compute()
		for {
			s, ok := ps.prog.Output()
			if !ok {
				break
			}
			outs = append(outs, s)
		}
		halt := ps.prog.VoteToHalt()
		busy := time.Since(t0)
		// Drop payload references before reusing the buffer.
		clear(inbox)
		inbox = inbox[:0]

		p.mu.Lock()
		// Busy time is tracked under the lock: the master reads it at round
		// boundaries while this goroutine stays alive for the next round.
		w.busy += busy
		p.stats.Cycles++
		ps.running = false
		if halt && ps.inHead < 0 {
			ps.active = false
			p.activePrograms--
			w.load--
		} else {
			// Reentrant continuation: stay on this worker, requeue.
			ps.queued = true
			w.heap.push(ps)
		}
		for _, s := range outs {
			p.outStreams.Push(s)
		}
		if len(outs) > 0 {
			p.outCycles.Push(len(outs))
		}
		p.busyWorkers--
		// A cycle that leaves the process with nothing active and nobody
		// busy may be the one termination waits for: wake the master even
		// when it produced no output.
		wake := len(outs) > 0 || (p.activePrograms == 0 && p.busyWorkers == 0)
		p.mu.Unlock()

		clear(outs)
		outs = outs[:0]
		if wake {
			select {
			case p.outReady <- struct{}{}:
			default:
			}
		}
	}
}

// progHeap is a max-heap on (prio, seq).
type progHeap []*progState

func (h progHeap) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h *progHeap) push(ps *progState) {
	*h = append(*h, ps)
	ps.index = len(*h) - 1
	h.up(ps.index)
}

func (h *progHeap) pop() *progState {
	old := *h
	n := len(old)
	top := old[0]
	old[0] = old[n-1]
	old[0].index = 0
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return top
}

func (h progHeap) Len() int { return len(h) }

func (h progHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].index = i
		h[parent].index = parent
		i = parent
	}
}

func (h progHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		h[i].index = i
		h[smallest].index = smallest
		i = smallest
	}
}
