// The jsweep-serve daemon: a long-lived per-host sweep service. It
// listens for versioned JobSpec submissions over TCP (the submission
// lane of internal/netcomm), admits them through a bounded multi-tenant
// FIFO queue, executes each job with a per-job timeout and cooperative
// cancellation, and streams per-iteration progress plus the terminal
// result back to the submitter. Finished solver sessions park in a warm
// node pool keyed by solve shape, so a stream of same-shaped jobs pays
// the mesh/graph/priority build once — the paper's long-lived-service
// model (§IV) extended from sweeps to whole jobs.
//
// Two job forms share the queue:
//
//   - full jobs (Submit.Rendezvous empty): the daemon runs every rank
//     in-process and returns the full converged flux;
//   - rank-slice jobs: the daemon hosts ranks [RankLo,RankHi) of an
//     external cluster wired through the submitter's rendezvous — the
//     building block of multi-host placement (place.go).
package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"jsweep/internal/netcomm"
	"jsweep/internal/nodespec"
	"jsweep/internal/obs"
	"jsweep/internal/sweep"
	"jsweep/internal/transport"
)

// Admission rejection codes (Rejected.Code values).
const (
	// CodeQueueFull: the running set and the wait queue are both at
	// capacity.
	CodeQueueFull = "queue-full"
	// CodeInvalidSpec: the submitted spec failed schema validation (the
	// detail carries the typed field errors).
	CodeInvalidSpec = "invalid-spec"
	// CodeShuttingDown: the daemon is draining and takes no new jobs.
	CodeShuttingDown = "shutting-down"
	// CodeBadFrame: the submission lane received a malformed or
	// out-of-protocol frame.
	CodeBadFrame = "bad-frame"
)

// Config shapes a Server.
type Config struct {
	// Listen is the submission listener address (default 127.0.0.1:0).
	Listen string
	// MaxJobs bounds concurrently running jobs (default 2).
	MaxJobs int
	// QueueDepth bounds admitted-but-waiting jobs; a submission beyond
	// MaxJobs running + QueueDepth queued gets a typed queue-full
	// rejection instead of an unbounded wait (default 8).
	QueueDepth int
	// Slots is the daemon's advertised rank capacity for multi-host
	// placement (default NumCPU). Advisory: admission is job-counted,
	// capacity-based placement is the launcher's job.
	Slots int
	// JobTimeout caps every job's run time; a submission asking for less
	// gets less, one asking for more is clamped (default 10m).
	JobTimeout time.Duration
	// PoolSize bounds the warm node pool (idle solver sessions kept
	// across jobs; default 4, 0 disables warming).
	PoolSize int
	// MetricsAddr, when non-empty, binds an HTTP listener serving
	// /metrics (Prometheus text), /healthz, and /statusz (JSON). Use
	// "127.0.0.1:0" for an ephemeral port (MetricsAddr() reports it).
	MetricsAddr string
	// Log receives human-readable daemon lines (nil = discard).
	Log io.Writer

	// onStart, when non-nil, runs on the job goroutine right after the
	// Started frame (test gate: queue-semantics tests hold jobs in the
	// running state deterministically).
	onStart func(job string)
}

func (c *Config) defaults() {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Slots <= 0 {
		c.Slots = runtime.NumCPU()
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.PoolSize < 0 {
		c.PoolSize = 0
	} else if c.PoolSize == 0 {
		c.PoolSize = 4
	}
}

// fifoSem is a FIFO counting semaphore with cancel-safe acquisition:
// waiters are granted strictly in arrival order (no barging — a queued
// job cannot be overtaken), and a waiter whose context dies either
// removes itself or, if the grant raced the cancellation, passes the
// grant to the next waiter.
type fifoSem struct {
	mu sync.Mutex
	// free is the number of unclaimed grants. guarded by mu
	free int
	// waiters queues arrival-ordered grant channels. guarded by mu
	waiters []chan struct{}
}

func newFifoSem(n int) *fifoSem { return &fifoSem{free: n} }

func (s *fifoSem) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	s.waiters = append(s.waiters, ch)
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-ch:
			// The grant raced the cancellation: hand it on.
			s.mu.Unlock()
			s.release()
		default:
			if i := slices.Index(s.waiters, ch); i >= 0 {
				s.waiters = slices.Delete(s.waiters, i, i+1)
			}
			s.mu.Unlock()
		}
		return ctx.Err()
	}
}

func (s *fifoSem) release() {
	s.mu.Lock()
	if len(s.waiters) > 0 {
		ch := s.waiters[0]
		s.waiters = slices.Delete(s.waiters, 0, 1)
		s.mu.Unlock()
		close(ch)
		return
	}
	s.free++
	s.mu.Unlock()
}

// Server is a running serve daemon.
type Server struct {
	cfg  Config
	ln   net.Listener
	pool *nodePool
	sem  *fifoSem

	metrics    *serveMetrics
	trace      *obs.Tracer
	metricsLn  net.Listener
	metricsSrv *http.Server

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu sync.Mutex
	// shutdown flips once at Close; admission checks it first. guarded by mu
	shutdown bool
	// running counts jobs granted a slot and not yet finished. guarded by mu
	running int
	// queued counts admitted jobs still waiting for a grant. guarded by mu
	queued int
	// busy counts rank slots occupied by running jobs. guarded by mu
	busy int
	// jobSeq numbers jobs for their daemon-assigned ids. guarded by mu
	jobSeq int
}

// Start listens and serves submissions until Close.
func Start(cfg Config) (*Server, error) {
	cfg.defaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Listen, err)
	}
	if cfg.Log != nil {
		// Handler, watcher and rank goroutines all log; serialize them so
		// callers can hand over any io.Writer.
		cfg.Log = &syncWriter{w: cfg.Log}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		ln:         ln,
		pool:       newNodePool(cfg.PoolSize),
		sem:        newFifoSem(cfg.MaxJobs),
		trace:      obs.NewTracer(0),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.metrics = newServeMetrics(s)
	if cfg.MetricsAddr != "" {
		if err := s.startMetricsServer(); err != nil {
			ln.Close()
			cancel()
			return nil, fmt.Errorf("serve: metrics listen %s: %w", cfg.MetricsAddr, err)
		}
	}
	s.logf("listening on %s (maxJobs=%d queueDepth=%d slots=%d jobTimeout=%v pool=%d)",
		ln.Addr(), cfg.MaxJobs, cfg.QueueDepth, cfg.Slots, cfg.JobTimeout, cfg.PoolSize)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the daemon's submission address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains the daemon: new submissions are rejected shutting-down,
// running jobs are cancelled, every connection handler is reaped, and
// the warm pool's sessions stop. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.shutdown
	s.shutdown = true
	s.mu.Unlock()
	if already {
		return nil
	}
	s.ln.Close()
	s.stopMetricsServer()
	s.baseCancel()
	s.wg.Wait()
	s.pool.closeAll()
	s.logf("closed")
	return nil
}

// WarmNodes reports the idle warm-pool size (diagnostics and tests).
func (s *Server) WarmNodes() int { return s.pool.size() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "serve: "+format+"\n", args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: Close is draining
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

// hello snapshots the daemon's capacity advertisement.
func (s *Server) hello() netcomm.Hello {
	s.mu.Lock()
	defer s.mu.Unlock()
	return netcomm.Hello{
		Proto:   netcomm.SubmitProto,
		Slots:   s.cfg.Slots,
		Busy:    s.busy,
		Running: s.running,
		Queued:  s.queued,
	}
}

// reject sends a typed rejection and records it: one admission counter
// per code, one trace event per decision.
func (s *Server) reject(w *frameWriter, code, detail string) {
	switch code {
	case CodeQueueFull:
		s.metrics.admQueueFull.Inc()
	case CodeInvalidSpec:
		s.metrics.admInvalidSpec.Inc()
	case CodeShuttingDown:
		s.metrics.admShuttingDown.Inc()
	case CodeBadFrame:
		s.metrics.admBadFrame.Inc()
	}
	s.trace.Emit(obs.Event{Name: "job.rejected", Detail: code})
	w.reject(code, detail)
}

// handleConn speaks one submission conversation: Hello, then at most
// one job for the connection's lifetime. The client going away (EOF) or
// sending Cancel aborts the job.
func (s *Server) handleConn(conn net.Conn) {
	w := &frameWriter{conn: conn, logf: s.logf}
	if err := netcomm.WriteFrame(conn, netcomm.KindHello, netcomm.AppendHello(nil, s.hello())); err != nil {
		return
	}
	kind, payload, err := netcomm.ReadFrame(conn)
	if err != nil {
		return // client connected for the Hello only (placement probe)
	}
	if kind != netcomm.KindSubmit {
		s.reject(w, CodeBadFrame, fmt.Sprintf("expected submit, got %s", kindNameOf(kind)))
		return
	}
	sub, err := netcomm.ParseSubmit(payload)
	if err != nil {
		s.reject(w, CodeBadFrame, err.Error())
		return
	}
	spec, err := nodespec.UnmarshalSpec(string(sub.Spec))
	if err != nil {
		s.reject(w, CodeInvalidSpec, err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		s.reject(w, CodeInvalidSpec, err.Error())
		return
	}
	spec = spec.Defaulted()
	slice := sub.Rendezvous != ""
	if slice {
		if sub.RankLo < 0 || sub.RankHi <= sub.RankLo || sub.RankHi > spec.Procs {
			s.reject(w, CodeInvalidSpec, fmt.Sprintf("rank slice [%d,%d) invalid for %d procs", sub.RankLo, sub.RankHi, spec.Procs))
			return
		}
	} else {
		sub.RankLo, sub.RankHi = 0, spec.Procs
	}
	slots := sub.RankHi - sub.RankLo

	// Admission: one decision under the lock — shutting-down beats
	// queue-full, queue-full counts running and waiting jobs.
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		s.reject(w, CodeShuttingDown, "daemon is draining")
		return
	}
	if s.running >= s.cfg.MaxJobs && s.queued >= s.cfg.QueueDepth {
		detail := fmt.Sprintf("%d running, %d queued (caps %d/%d)", s.running, s.queued, s.cfg.MaxJobs, s.cfg.QueueDepth)
		s.mu.Unlock()
		s.reject(w, CodeQueueFull, detail)
		return
	}
	pos := 0
	if s.running >= s.cfg.MaxJobs {
		pos = s.queued + 1
	}
	s.queued++
	s.jobSeq++
	job := fmt.Sprintf("job-%d", s.jobSeq)
	s.mu.Unlock()

	if err := w.write(netcomm.KindAccepted, netcomm.AppendAccepted(nil, netcomm.Accepted{Job: job, QueuePos: pos})); err != nil {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		return
	}
	acceptedAt := time.Now()
	s.metrics.admAccepted.Inc()
	s.trace.Emit(obs.Event{Name: "job.submitted", ID: job, Detail: spec.Mesh})
	s.logf("%s accepted (queuePos=%d slice=%v ranks=[%d,%d) mesh=%s)", job, pos, slice, sub.RankLo, sub.RankHi, spec.Mesh)

	// The job context dies with the daemon, with a client Cancel frame,
	// or with the client's disconnect — the watcher goroutine turns the
	// connection's read side into a cancellation source.
	jobCtx, cancelJob := context.WithCancelCause(s.baseCtx)
	defer cancelJob(nil)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			kind, payload, err := netcomm.ReadFrame(conn)
			if err != nil {
				cancelJob(fmt.Errorf("client disconnected: %w", err))
				return
			}
			if kind == netcomm.KindCancel {
				reason, _ := netcomm.ParseCancel(payload)
				if reason == "" {
					reason = "client cancel"
				}
				cancelJob(fmt.Errorf("cancelled: %s", reason))
				return
			}
			// Anything else on the lane after Submit is a protocol error.
			cancelJob(fmt.Errorf("unexpected %s frame mid-job", kindNameOf(kind)))
			return
		}
	}()

	// FIFO grant: wait for a running slot in arrival order.
	if err := s.sem.acquire(jobCtx); err != nil {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		s.metrics.abandoned.Inc()
		s.trace.Emit(obs.Event{Name: "job.abandoned", ID: job, Dur: time.Since(acceptedAt)})
		w.jobError(fmt.Errorf("%s while queued: %w", job, context.Cause(jobCtx)))
		s.logf("%s abandoned in queue: %v", job, context.Cause(jobCtx))
		return
	}
	grantWait := time.Since(acceptedAt)
	s.metrics.grantWait.Observe(grantWait.Seconds())
	s.trace.Emit(obs.Event{Name: "job.granted", ID: job, Dur: grantWait})
	s.mu.Lock()
	s.queued--
	s.running++
	s.busy += slots
	s.mu.Unlock()
	release := sync.OnceFunc(func() {
		s.mu.Lock()
		s.running--
		s.busy -= slots
		s.mu.Unlock()
		s.sem.release()
	})
	defer release()

	// Per-job timeout: min(submitted, server cap), counted from the
	// grant — queue wait does not eat the job's budget.
	eff := s.cfg.JobTimeout
	if sub.Timeout > 0 && sub.Timeout < eff {
		eff = sub.Timeout
	}
	runCtx, cancelRun := context.WithTimeoutCause(jobCtx, eff,
		fmt.Errorf("job timed out after %v", eff))
	defer cancelRun()

	if err := w.write(netcomm.KindStarted, netcomm.AppendStarted(nil, job)); err != nil {
		return
	}
	if s.cfg.onStart != nil {
		s.cfg.onStart(job)
	}
	t0 := time.Now()
	s.trace.Emit(obs.Event{Name: "job.running", ID: job})
	progress := func(ev nodespec.Progress) { w.progress(ev) }
	var nr *nodespec.NodeResult
	if slice {
		nr, err = s.runSlice(runCtx, spec, sub, progress)
	} else {
		nr, err = s.runFull(runCtx, spec, sub.Verify, progress)
	}
	if err != nil {
		if cause := context.Cause(runCtx); cause != nil && runCtx.Err() != nil {
			err = fmt.Errorf("%w (%v)", cause, err)
		}
		s.metrics.jobFailedH.Observe(time.Since(t0).Seconds())
		s.trace.Emit(obs.Event{Name: "job.error", ID: job, Dur: time.Since(t0), Detail: err.Error()})
		release() // settled before the submitter hears of it, as on success
		w.jobError(fmt.Errorf("%s: %w", job, err))
		s.logf("%s failed after %v: %v", job, time.Since(t0).Round(time.Millisecond), err)
		return
	}
	frame, err := encodeResult(nr, sub.RankLo == 0)
	if err != nil {
		w.jobError(fmt.Errorf("%s: encode result: %w", job, err))
		return
	}
	// Record the outcome and return the slot before the result frame goes
	// out: a submitter holding its result must find the daemon's counters
	// settled, not a moment behind (the warm node went back to the pool
	// when the run returned).
	s.metrics.jobOK.Observe(time.Since(t0).Seconds())
	s.trace.Emit(obs.Event{Name: "job.result", ID: job, Dur: time.Since(t0), Detail: nr.FluxHash})
	release()
	if err := w.write(netcomm.KindResult, frame); err != nil {
		// The job is solved either way; the submitter just won't see it.
		s.logf("%s result frame write failed: %v", job, err)
	}
	s.logf("%s done in %v (hash=%s warm=%d)", job, time.Since(t0).Round(time.Millisecond), nr.FluxHash, s.pool.size())
}

// runFull executes a whole job in-process: every rank of the spec's
// decomposition runs on the solver's internal transport, warmed through
// the node pool.
func (s *Server) runFull(ctx context.Context, spec nodespec.Spec, verify bool, progress func(nodespec.Progress)) (*nodespec.NodeResult, error) {
	key, err := poolKey(spec)
	if err != nil {
		return nil, err
	}
	n := s.pool.take(key)
	if n == nil {
		s.metrics.warmMisses.Inc()
		prob, d, err := nodespec.Build(spec)
		if err != nil {
			return nil, err
		}
		opts, err := nodespec.SolverOptions(spec, nil)
		if err != nil {
			return nil, err
		}
		solver, err := sweep.NewSolver(prob, d, opts)
		if err != nil {
			return nil, err
		}
		n = &warmNode{prob: prob, d: d, solver: solver}
	} else {
		s.metrics.warmHits.Inc()
		// Bitwise parity with a cold run: clear the lagged-flux store
		// (the only numerical state a finished solve leaves behind).
		n.solver.ResetSolve()
	}
	ok := false
	defer func() {
		if ok {
			s.pool.put(key, n)
		} else {
			// A failed or cancelled session may hold broken workers;
			// never park it.
			n.solver.Close()
		}
	}()
	cfg := nodespec.IterConfig(spec)
	if progress != nil {
		cfg.Progress = func(p transport.Progress) {
			progress(nodespec.Progress{Progress: p, Sweep: n.solver.LastStats()})
		}
	}
	// Every full job gets a private solve tracer: the per-iteration
	// phase spans ride back to the submitter inside the result meta
	// (RunResult.Trace), while the server's own tracer keeps the
	// queue-level lifecycle.
	cfg.Tracer = obs.NewTracer(0)
	t0 := time.Now()
	res, err := transport.SourceIterateCtx(ctx, n.prob, n.solver, cfg)
	if err != nil {
		return nil, err
	}
	nr := &nodespec.NodeResult{
		Result:   res,
		Balance:  make([]transport.BalanceReport, n.prob.Groups),
		Stats:    n.solver.LastStats(),
		Cluster:  nodespec.LocalClusterStats(nil, n.solver.LastStats()),
		FluxHash: nodespec.FluxHash(res.Phi),
		Trace:    cfg.Tracer.Events(),
		Wall:     time.Since(t0),
	}
	for g := 0; g < n.prob.Groups; g++ {
		nr.Balance[g] = n.prob.GroupBalance(res.Phi, g)
	}
	if verify {
		if err := nodespec.Verify(spec, n.prob, res); err != nil {
			return nil, err
		}
		nr.Verified = true
	}
	ok = true
	return nr, nil
}

// runSlice hosts ranks [RankLo,RankHi) of an external cluster: each
// rank joins the submitter's rendezvous exactly like a jsweep-node
// process would, but as a goroutine of the daemon. The slice's lowest
// rank carries the result; progress streams only from rank 0 (the
// ranks' events are identical by construction).
func (s *Server) runSlice(ctx context.Context, spec nodespec.Spec, sub netcomm.Submit, progress func(nodespec.Progress)) (*nodespec.NodeResult, error) {
	nRanks := sub.RankHi - sub.RankLo
	results := make([]*nodespec.NodeResult, nRanks)
	errs := make([]error, nRanks)
	var wg sync.WaitGroup
	for i := 0; i < nRanks; i++ {
		rank := sub.RankLo + i
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			o := nodespec.NodeOptions{
				Rank:       rank,
				Rendezvous: sub.Rendezvous,
				Cluster:    sub.Cluster,
				Verify:     sub.Verify && rank == 0,
				Log:        s.cfg.Log,
			}
			if i == 0 {
				// The slice's lowest rank carries the result; its solve
				// trace travels with it.
				o.Tracer = obs.NewTracer(0)
			}
			if rank == 0 && progress != nil {
				o.Progress = progress
			}
			results[i], errs[i] = nodespec.RunCtx(ctx, spec, o)
		}(i, rank)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", sub.RankLo+i, err)
		}
	}
	return results[0], nil
}

// syncWriter serializes writes to a shared log sink.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// frameWriter serializes submission-lane writes on a connection (the
// handler and a slice job's rank-0 goroutine both write). Terminal and
// best-effort frames log their write failures through logf instead of
// swallowing them: the submitter being gone is worth one daemon log
// line, never a silent drop (the swallowed-Bye class).
type frameWriter struct {
	mu   sync.Mutex
	conn net.Conn
	logf func(format string, args ...any)
}

func (w *frameWriter) write(kind byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return netcomm.WriteFrame(w.conn, kind, payload)
}

func (w *frameWriter) reject(code, detail string) {
	if err := w.write(netcomm.KindRejected, netcomm.AppendRejected(nil, netcomm.Rejected{Code: code, Detail: detail})); err != nil {
		w.logf("rejected-frame write failed (%s): %v", code, err)
	}
}

func (w *frameWriter) jobError(jobErr error) {
	if err := w.write(netcomm.KindJobError, netcomm.AppendJobError(nil, jobErr.Error())); err != nil {
		w.logf("job-error frame write failed (job error %v): %v", jobErr, err)
	}
}

func (w *frameWriter) progress(ev nodespec.Progress) {
	if payload, err := encodeProgress(ev); err == nil {
		if werr := w.write(netcomm.KindProgress, payload); werr != nil {
			w.logf("progress frame write failed (iter %d): %v", ev.Iteration, werr)
		}
	}
}
