package sweep

import (
	"context"
	"fmt"
	"sync"

	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/graph"
	"jsweep/internal/mesh"
	"jsweep/internal/priority"
	"jsweep/internal/runtime"
	"jsweep/internal/transport"
)

// ReuseMode selects the session-reuse policy of the solver (paper §IV:
// the runtime is a long-lived service; rebuilding it per sweep is pure
// overhead across the 10–200 sweeps of a source iteration).
type ReuseMode int

const (
	// ReuseAuto is the default and enables reuse.
	ReuseAuto ReuseMode = iota
	// ReuseOn keeps one persistent session (processes, worker goroutines,
	// transport, program objects, pooled buffers) across Sweep calls.
	ReuseOn
	// ReuseOff rebuilds every program and a fresh runtime per Sweep — the
	// conservative pre-session behaviour, kept as the validation baseline.
	ReuseOff
)

func (m ReuseMode) String() string {
	if m == ReuseOff {
		return "off"
	}
	return "on"
}

// Options configures the JSweep data-driven solver.
type Options struct {
	// Procs and Workers shape the runtime (ignored when Sequential).
	Procs, Workers int
	// Grain is the vertex clustering grain N (§V-C); default 64.
	Grain int
	// Pair is the two-level priority strategy (§V-D); default SLBD+SLBD —
	// the paper's recommended configuration.
	Pair priority.Pair
	// UseCoarse caches vertex clusters from the first sweep and runs later
	// sweeps on the coarsened graph (§V-E).
	UseCoarse bool
	// Sequential executes on the deterministic single-threaded core.Engine
	// instead of the parallel runtime (for debugging and validation).
	Sequential bool
	// Termination selects the runtime's termination detector; sweeps know
	// their workload, so Workload is the default.
	Termination runtime.TerminationMode
	// Aggregation configures the runtime's outbound message aggregation
	// (paper §IV): remote boundary-flux streams coalesce into
	// per-destination frames. An unset MaxBatchBytes is sized from the
	// sweep's own payload geometry (grain × groups).
	Aggregation runtime.AggregationConfig
	// ReuseRuntime keeps the runtime session and the patch-program set
	// alive across Sweep calls, resetting them in place per sweep instead
	// of rebuilding (default on). Call Solver.Close when done with a
	// reusing solver to stop its worker goroutines.
	ReuseRuntime ReuseMode
	// Transport selects the message-passing backend. Nil (the default)
	// runs all Procs ranks as goroutines of this OS process over the
	// in-memory transport. A network transport (internal/netcomm) that
	// hosts a single rank turns the solver into one SPMD node of a
	// multi-process cluster: it executes only the patch-programs its rank
	// owns and allgathers flux (and lagged-edge) partials after every
	// sweep, so each node's Sweep returns the full, bitwise-identical
	// scalar flux. Every node must build the same problem, decomposition
	// and options. The caller retains ownership of the transport and
	// closes it after Solver.Close. Incompatible with Sequential. With
	// UseCoarse the recording sweep's vertex clusters are allgathered so
	// every rank coarsens the identical full program set.
	Transport comm.Transport
}

func (o *Options) defaults() {
	if o.Procs < 1 {
		o.Procs = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Grain < 1 {
		o.Grain = 64
	}
}

// reuse reports whether session reuse is enabled.
func (o *Options) reuse() bool { return o.ReuseRuntime != ReuseOff }

// SweepStats captures the cost of the last executed sweep.
type SweepStats struct {
	// Runtime holds the parallel runtime statistics of the last sweep
	// (zero when Sequential).
	Runtime runtime.Stats
	// Cumulative sums the runtime statistics over every sweep of the
	// current persistent session; its RoundsRun field counts the sweeps.
	// Zero when Sequential or when reuse is off. A UseCoarse solver
	// starts a fresh session (and count) at the fine→coarse switch.
	Cumulative runtime.Stats
	// ComputeCalls counts patch-program Compute invocations (scheduling
	// events) — the quantity graph coarsening reduces.
	ComputeCalls int64
	// Streams counts the streams the programs emitted.
	Streams int64
	// Coarse reports whether the sweep ran on the coarsened graph.
	Coarse bool
	// CoarseClusters counts the vertex clusters this rank recorded during
	// the UseCoarse recording sweep (its local programs' share of the
	// coarse graph; 0 until the fine→coarse switch). The cluster-wide
	// total is gathered with the other per-rank counters.
	CoarseClusters int64
	// LaggedEdges counts the feedback edges broken by flux lagging across
	// all angles (0 on acyclic meshes); each contributed one old-flux read
	// and one new-flux write to the round.
	LaggedEdges int
	// CellSCCs / PatchSCCs count the nontrivial strongly connected
	// components (size > 1) of the cell-level sweep graphs and of the
	// patch digraphs, summed over angles.
	CellSCCs, PatchSCCs int
}

// Solver is the JSweep Sn sweep component (§V): it owns the per-(patch,
// angle) dependency graphs and priorities and executes transport sweeps on
// the patch-centric runtime. It implements transport.SweepExecutor, so it
// plugs directly into transport.SourceIterate.
//
// With ReuseRuntime on (the default) the solver is a persistent session:
// programs are built once, the runtime's processes and worker goroutines
// stay alive across sweeps, and flux arrays come from a pool fed by
// RecycleFlux. Close releases the session's worker goroutines.
type Solver struct {
	prob *transport.Problem
	d    *mesh.Decomposition
	opts Options

	// graphs[a][p] is G_{p,a}, with feedback edges lagged on cyclic meshes.
	graphs [][]*graph.PatchGraph
	// patchPrio[a][p] is prior(p) for angle a; vertexPrio[a][p] the
	// in-patch queue priorities.
	patchPrio  [][]int64
	vertexPrio [][][]int32

	// lag stores the lagged fluxes breaking cyclic sweep dependencies (nil
	// on acyclic meshes); it persists across sweeps — Advance per sweep
	// swaps the previous sweep's writes into the read half. laggedEdges,
	// cellSCCs and patchSCCs summarize the cycle structure across angles.
	lag         *LagStore
	laggedEdges int
	cellSCCs    int
	patchSCCs   int

	// Persistent session state (reuse mode): program objects built once,
	// plus the live engine or runtime they are registered in. rtCoarse /
	// engCoarse record which program set the session holds; the
	// fine→coarse switch rebuilds it once.
	fineProgs   [][]*Program
	coarseProgs [][]*CoarseProgram
	eng         *core.Engine
	engCoarse   bool
	rt          *runtime.Runtime
	rtCoarse    bool

	// fluxPool recycles [group][cell] arrays returned by Sweep and handed
	// back through RecycleFlux.
	fluxMu   sync.Mutex
	fluxPool [][][]float64

	// Distributed (multi-process) state: with a network transport this
	// solver is one SPMD node hosting myRank. localPatch flags the
	// patches whose programs run here; coll runs the per-sweep allgather
	// of flux and lagged-edge partials; myLagSlots lists the lagged-flux
	// slots whose writers are local, in ascending slot order, and
	// lagSlotOwner maps every flat slot to its writer rank so merges can
	// reject a peer claiming a slot it does not own.
	distributed  bool
	myRank       int
	localPatch   []bool
	coll         *comm.Collective
	myLagSlots   []int32
	lagSlotOwner []int

	cg    *graph.CoarseGraph
	stats SweepStats
}

// NewSolver prepares a solver: builds every G_{p,a}, the patch-level DAGs
// and both priority levels (once per face-sign signature group, see
// sweepPlan), and places patches on processes. With reuse
// enabled it also builds the patch-program objects the session will keep.
func NewSolver(prob *transport.Problem, d *mesh.Decomposition, opts Options) (*Solver, error) {
	opts.defaults()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if d.Mesh != prob.M {
		return nil, fmt.Errorf("sweep: decomposition and problem use different meshes")
	}
	s := &Solver{prob: prob, d: d, opts: opts}
	d.Place(opts.Procs)
	if opts.Transport != nil {
		if err := s.setupDistributed(); err != nil {
			return nil, err
		}
	}
	pl := buildPlan(d, prob.Quad.Directions, opts.Pair)
	s.graphs, s.patchPrio, s.vertexPrio = pl.graphs, pl.patchPrio, pl.vertexPrio
	s.laggedEdges, s.cellSCCs, s.patchSCCs = pl.laggedEdges, pl.cellSCCs, pl.patchSCCs
	lagged := pl.lagged
	s.lag = NewLagStore(lagged, prob.Groups)
	if s.distributed && s.lag != nil {
		// Lagged-edge slots are written by the program owning the edge's
		// source cell; record which flat slots are written on this rank so
		// the per-sweep exchange can export them (and import the rest),
		// plus every slot's owner rank for merge validation.
		s.lagSlotOwner = make([]int, 0, s.lag.Total())
		slot := int32(0)
		for _, edges := range lagged {
			for _, e := range edges {
				owner := s.d.Owner[s.d.PatchOf(e.From)]
				s.lagSlotOwner = append(s.lagSlotOwner, owner)
				if s.localPatch[s.d.PatchOf(e.From)] {
					s.myLagSlots = append(s.myLagSlots, slot)
				}
				slot++
			}
		}
	}
	if s.opts.reuse() {
		s.fineProgs = s.buildFinePrograms(nil, s.opts.UseCoarse)
	}
	return s, nil
}

// setupDistributed validates the network transport and prepares the SPMD
// node state (local patch set, collective helper, rank identity).
func (s *Solver) setupDistributed() error {
	tr := s.opts.Transport
	if s.opts.Sequential {
		return fmt.Errorf("sweep: Sequential and Transport are mutually exclusive")
	}
	if n := tr.NumRanks(); n != s.opts.Procs {
		return fmt.Errorf("sweep: transport spans %d ranks, options want %d procs", n, s.opts.Procs)
	}
	local := tr.LocalRanks()
	isLocal := make([]bool, s.opts.Procs)
	for _, r := range local {
		if r < 0 || r >= s.opts.Procs {
			return fmt.Errorf("sweep: transport local rank %d out of range [0,%d)", r, s.opts.Procs)
		}
		isLocal[r] = true
	}
	s.localPatch = make([]bool, s.d.NumPatches())
	for p := range s.localPatch {
		s.localPatch[p] = isLocal[s.d.Owner[p]]
	}
	if len(local) == s.opts.Procs {
		// Every rank in-process (an in-memory transport passed explicitly):
		// no partial-result exchange needed.
		return nil
	}
	if len(local) != 1 {
		return fmt.Errorf("sweep: a distributed solver node hosts exactly one rank (transport hosts %d)", len(local))
	}
	s.distributed = true
	s.myRank = local[0]
	ep := tr.Endpoint(s.myRank)
	if ep == nil {
		return fmt.Errorf("sweep: transport returns no endpoint for local rank %d", s.myRank)
	}
	s.coll = comm.NewCollective(ep, s.opts.Procs)
	return nil
}

// runsLocally reports whether patch p's programs execute on this node.
// Without a multi-process transport every patch is local.
func (s *Solver) runsLocally(p int) bool {
	return !s.distributed || s.localPatch[p]
}

// Collective returns the solver's OOB collective helper (nil unless the
// solver is a multi-process node). A Collective must own its endpoint's
// OOB lane exclusively — when ranks drift apart, payloads for the next
// exchange are stashed inside the instance — so any further collectives
// on this endpoint (e.g. a final stats gather) must go through this same
// instance, never a fresh one.
func (s *Solver) Collective() *comm.Collective { return s.coll }

// Close ends the persistent session: the runtime's worker goroutines stop
// and further Sweep calls rebuild a fresh session on demand. It is
// idempotent and a no-op for non-reusing or sequential solvers.
func (s *Solver) Close() error {
	if s.rt == nil {
		return nil
	}
	err := s.rt.Close()
	s.rt = nil
	return err
}

// LastStats returns the statistics of the most recent sweep.
func (s *Solver) LastStats() SweepStats { return s.stats }

// ResetSolve clears the cross-solve state a finished source iteration
// leaves behind — the lagged-flux store on cyclic meshes — so a warm,
// reused solver starts its next solve from the exact zero state of a
// freshly built one (bitwise: the serve daemon's warm pool depends on
// it). The persistent session itself — processes, workers, transport,
// program objects, the cached coarse graph — is deliberately kept.
func (s *Solver) ResetSolve() {
	if s.lag != nil {
		s.lag.Reset()
	}
}

// CoarseGraph returns the cached coarsened graph (nil until built).
func (s *Solver) CoarseGraph() *graph.CoarseGraph { return s.cg }

// progIndex flattens (angle, patch) into the program index used with
// graph.Coarsen.
func (s *Solver) progIndex(a, p int) int { return a*s.d.NumPatches() + p }

// RecycleFlux accepts a no-longer-needed flux array previously returned
// by Sweep and pools it for a later sweep (transport.SourceIterate calls
// this as iterations retire). Arrays of the wrong shape are dropped.
func (s *Solver) RecycleFlux(phi [][]float64) {
	if len(phi) != s.prob.Groups {
		return
	}
	nc := s.prob.M.NumCells()
	for g := range phi {
		if len(phi[g]) != nc {
			return
		}
	}
	s.fluxMu.Lock()
	s.fluxPool = append(s.fluxPool, phi)
	s.fluxMu.Unlock()
}

// newFlux returns a zeroed [group][cell] array, reusing a pooled one when
// available.
func (s *Solver) newFlux() [][]float64 {
	s.fluxMu.Lock()
	n := len(s.fluxPool)
	var phi [][]float64
	if n > 0 {
		phi = s.fluxPool[n-1]
		s.fluxPool[n-1] = nil
		s.fluxPool = s.fluxPool[:n-1]
	}
	s.fluxMu.Unlock()
	if phi == nil {
		return s.prob.NewFlux()
	}
	for g := range phi {
		clear(phi[g])
	}
	return phi
}

// LaggedEdges returns the number of feedback edges the solver breaks by
// flux lagging (0 on acyclic meshes). It implements transport.CycleLagger,
// which keeps SourceIterate iterating until the lagged fluxes converge
// even without scattering.
func (s *Solver) LaggedEdges() int { return s.laggedEdges }

// Sweep implements transport.SweepExecutor. The first call under
// UseCoarse records clusters and builds the coarsened graph; subsequent
// calls execute on it.
func (s *Solver) Sweep(q [][]float64) ([][]float64, error) {
	return s.SweepCtx(context.Background(), q)
}

// SweepCtx is Sweep with cooperative cancellation: the context threads
// into the runtime's master loops, so a cancelled sweep abandons its
// round and returns promptly with the context's error. The solver's
// session is broken afterwards — Close it. Cancellation of a
// multi-process node does NOT by itself unblock the per-sweep partial
// exchange (a collective over the transport); the transport's owner
// must Abort it on cancellation, which fails every pending collective
// cluster-wide (jsweep.Job and nodespec.RunCtx do this).
func (s *Solver) SweepCtx(ctx context.Context, q [][]float64) ([][]float64, error) {
	if s.lag != nil {
		// The previous sweep's lagged writes become this sweep's inputs
		// (all-zero before the first sweep).
		s.lag.Advance()
	}
	if s.cg != nil {
		return s.sweepCoarse(ctx, q)
	}
	record := s.opts.UseCoarse
	phi, progs, err := s.sweepFine(ctx, q, record)
	if err != nil {
		return nil, err
	}
	if record {
		if err := s.buildCoarse(progs); err != nil {
			return nil, fmt.Errorf("sweep: coarsening: %w", err)
		}
	}
	return phi, nil
}

// buildFinePrograms constructs every fine (angle, patch) program. q may
// be nil for session programs, which are rebound per sweep via Reset.
// A distributed node builds the full set too — registration needs every
// key for stream routing — but program state is allocated lazily in
// Init/ensure, which the runtime only calls for locally hosted ranks,
// and Reset on a never-initialized program is an O(1) source rebind; a
// node's memory therefore scales with its owned patches, not the mesh.
func (s *Solver) buildFinePrograms(q [][]float64, record bool) [][]*Program {
	na := len(s.prob.Quad.Directions)
	np := s.d.NumPatches()
	progs := make([][]*Program, na)
	for a := 0; a < na; a++ {
		progs[a] = make([]*Program, np)
		for p := 0; p < np; p++ {
			progs[a][p] = NewProgram(ProgramConfig{
				Prob:           s.prob,
				Graph:          s.graphs[a][p],
				Dir:            s.prob.Quad.Directions[a],
				Q:              q,
				Grain:          s.opts.Grain,
				VertexPrio:     s.vertexPrio[a][p],
				RecordClusters: record,
				Lag:            s.lag,
			})
		}
	}
	return progs
}

// buildCoarsePrograms constructs every coarse (angle, patch) program.
func (s *Solver) buildCoarsePrograms(q [][]float64) [][]*CoarseProgram {
	na := len(s.prob.Quad.Directions)
	np := s.d.NumPatches()
	progs := make([][]*CoarseProgram, na)
	for a := 0; a < na; a++ {
		progs[a] = make([]*CoarseProgram, np)
		for p := 0; p < np; p++ {
			progs[a][p] = NewCoarseProgram(CoarseConfig{
				Prob:  s.prob,
				Graph: s.graphs[a][p],
				CG:    s.cg,
				CVs:   s.cg.ByProgram[s.progIndex(a, p)],
				Dir:   s.prob.Quad.Directions[a],
				Q:     q,
				Lag:   s.lag,
			})
		}
	}
	return progs
}

// sweepFine runs a DAG-driven sweep with per-vertex scheduling.
func (s *Solver) sweepFine(ctx context.Context, q [][]float64, record bool) ([][]float64, [][]*Program, error) {
	na := len(s.prob.Quad.Directions)
	np := s.d.NumPatches()
	var progs [][]*Program
	if s.opts.reuse() {
		if s.fineProgs == nil {
			s.fineProgs = s.buildFinePrograms(nil, record)
		}
		progs = s.fineProgs
		for a := 0; a < na; a++ {
			for p := 0; p < np; p++ {
				progs[a][p].Reset(q)
			}
		}
	} else {
		progs = s.buildFinePrograms(q, record)
	}
	run := func(register func(key core.ProgramKey, prog core.PatchProgram, prio int64, rank int) error) error {
		for a := 0; a < na; a++ {
			for p := 0; p < np; p++ {
				prio := priority.Combine(priority.AnglePriority(int32(a)), s.patchPrio[a][p])
				if err := register(progs[a][p].Key, progs[a][p], prio, s.d.Owner[p]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := s.execute(ctx, run, false); err != nil {
		return nil, nil, err
	}
	// Deterministic reduction: angle-major, patch-major, vertex order.
	phi := s.newFlux()
	s.stats.ComputeCalls = 0
	s.stats.Streams = s.stats.Runtime.LocalStreams + s.stats.Runtime.RemoteStreams
	s.stats.Coarse = false
	s.stats.LaggedEdges = s.laggedEdges
	s.stats.CellSCCs = s.cellSCCs
	s.stats.PatchSCCs = s.patchSCCs
	for a := 0; a < na; a++ {
		for p := 0; p < np; p++ {
			if !s.runsLocally(p) {
				continue
			}
			prog := progs[a][p]
			if prog.RemainingWork() != 0 {
				return nil, nil, fmt.Errorf("sweep: program %v finished with %d vertices unswept", prog.Key, prog.RemainingWork())
			}
			s.stats.ComputeCalls += prog.ComputeCalls()
			local := prog.PhiLocal()
			cells := s.graphs[a][p].Cells
			for g := 0; g < s.prob.Groups; g++ {
				dst := phi[g]
				src := local[g]
				for v, c := range cells {
					dst[c] += src[v]
				}
			}
		}
	}
	if err := s.exchangePartials(phi); err != nil {
		return nil, nil, err
	}
	return phi, progs, nil
}

// sweepCoarse runs a sweep on the cached coarsened graph.
func (s *Solver) sweepCoarse(ctx context.Context, q [][]float64) ([][]float64, error) {
	na := len(s.prob.Quad.Directions)
	np := s.d.NumPatches()
	var progs [][]*CoarseProgram
	if s.opts.reuse() {
		if s.coarseProgs == nil {
			s.coarseProgs = s.buildCoarsePrograms(nil)
			// The fine program set (and its registered session) is done:
			// all later sweeps run coarse.
			s.fineProgs = nil
		}
		progs = s.coarseProgs
		for a := 0; a < na; a++ {
			for p := 0; p < np; p++ {
				progs[a][p].Reset(q)
			}
		}
	} else {
		progs = s.buildCoarsePrograms(q)
	}
	run := func(register func(key core.ProgramKey, prog core.PatchProgram, prio int64, rank int) error) error {
		for a := 0; a < na; a++ {
			for p := 0; p < np; p++ {
				prio := priority.Combine(priority.AnglePriority(int32(a)), s.patchPrio[a][p])
				if err := register(progs[a][p].Key, progs[a][p], prio, s.d.Owner[p]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := s.execute(ctx, run, true); err != nil {
		return nil, err
	}
	phi := s.newFlux()
	s.stats.ComputeCalls = 0
	s.stats.Streams = s.stats.Runtime.LocalStreams + s.stats.Runtime.RemoteStreams
	s.stats.Coarse = true
	s.stats.LaggedEdges = s.laggedEdges
	s.stats.CellSCCs = s.cellSCCs
	s.stats.PatchSCCs = s.patchSCCs
	for a := 0; a < na; a++ {
		for p := 0; p < np; p++ {
			// A distributed node only ran (and reduces) its own patches;
			// exchangePartials below completes the flux exactly as in the
			// fine sweep.
			if !s.runsLocally(p) {
				continue
			}
			prog := progs[a][p]
			if prog.RemainingWork() != 0 {
				return nil, fmt.Errorf("sweep: coarse program %v finished with %d vertices unswept", prog.Key, prog.RemainingWork())
			}
			s.stats.ComputeCalls += prog.ComputeCalls()
			local := prog.PhiLocal()
			cells := s.graphs[a][p].Cells
			for g := 0; g < s.prob.Groups; g++ {
				dst := phi[g]
				src := local[g]
				for v, c := range cells {
					dst[c] += src[v]
				}
			}
		}
	}
	if err := s.exchangePartials(phi); err != nil {
		return nil, err
	}
	return phi, nil
}

// execute runs the registered programs on the engine or the runtime.
// coarse tags which program set the registration closure provides, so the
// persistent session knows when to rebuild at the fine→coarse switch.
func (s *Solver) execute(ctx context.Context, register func(func(core.ProgramKey, core.PatchProgram, int64, int) error) error, coarse bool) error {
	if s.opts.Sequential {
		return s.executeSequential(register, coarse)
	}
	if s.opts.reuse() {
		return s.executeSession(ctx, register, coarse)
	}
	rt, err := runtime.New(s.runtimeConfig())
	if err != nil {
		return err
	}
	if err := register(rt.Register); err != nil {
		return err
	}
	st, err := rt.RunCtx(ctx)
	s.stats.Runtime = st
	s.stats.Cumulative = runtime.Stats{}
	return err
}

// executeSequential runs on the deterministic core.Engine, reusing one
// engine across sweeps when the session is persistent.
func (s *Solver) executeSequential(register func(func(core.ProgramKey, core.PatchProgram, int64, int) error) error, coarse bool) error {
	var eng *core.Engine
	if s.opts.reuse() && s.eng != nil && s.engCoarse == coarse {
		eng = s.eng
		eng.Reset()
	} else {
		eng = core.NewEngine()
		if err := register(func(k core.ProgramKey, pr core.PatchProgram, prio int64, _ int) error {
			return eng.Register(k, pr, prio)
		}); err != nil {
			return err
		}
		if s.opts.reuse() {
			s.eng = eng
			s.engCoarse = coarse
		}
	}
	_, err := eng.Run()
	s.stats.Runtime = runtime.Stats{}
	s.stats.Cumulative = runtime.Stats{}
	return err
}

// executeSession runs one round on the persistent runtime, creating or
// rebuilding it when the program set changed.
func (s *Solver) executeSession(ctx context.Context, register func(func(core.ProgramKey, core.PatchProgram, int64, int) error) error, coarse bool) error {
	if s.rt != nil && s.rtCoarse != coarse {
		// Fine→coarse switch: the old session's program set is obsolete.
		if err := s.rt.Close(); err != nil {
			return err
		}
		s.rt = nil
	}
	if s.rt == nil {
		rt, err := runtime.New(s.runtimeConfig())
		if err != nil {
			return err
		}
		if err := register(rt.Register); err != nil {
			return err
		}
		s.rt = rt
		s.rtCoarse = coarse
	} else if err := s.rt.Reset(); err != nil {
		return err
	}
	st, err := s.rt.RunRoundCtx(ctx)
	s.stats.Runtime = st
	s.stats.Cumulative = s.rt.CumulativeStats()
	return err
}

// runtimeConfig shapes the parallel runtime from the options.
func (s *Solver) runtimeConfig() runtime.Config {
	agg := s.opts.Aggregation
	if agg.Enabled && agg.MaxBatchBytes == 0 {
		// Size batches for ~16 typical streams: one stream carries about a
		// grain's worth of boundary face-flux records per group.
		agg.MaxBatchBytes = 16 * (core.StreamHeaderSize + StreamPayloadBytes(s.opts.Grain, s.prob.Groups))
	}
	return runtime.Config{
		Procs:       s.opts.Procs,
		Workers:     s.opts.Workers,
		Termination: s.opts.Termination,
		Aggregation: agg,
		Transport:   s.opts.Transport,
	}
}

// buildCoarse assembles the coarsened graph from recorded clusters. On a
// distributed node the recording sweep only ran this rank's programs, so
// the per-program cluster lists are allgathered first (gatherClusters) —
// every rank then coarsens the identical full program set, keeping graph
// placement (and therefore the flux bit pattern) consistent cluster-wide.
func (s *Solver) buildCoarse(progs [][]*Program) error {
	na := len(s.prob.Quad.Directions)
	np := s.d.NumPatches()
	graphs := make([]*graph.PatchGraph, 0, na*np)
	clusters := make([][][]int32, 0, na*np)
	local := int64(0)
	for a := 0; a < na; a++ {
		for p := 0; p < np; p++ {
			graphs = append(graphs, s.graphs[a][p])
			cs := progs[a][p].Clusters()
			if s.runsLocally(p) {
				local += int64(len(cs))
			}
			clusters = append(clusters, cs)
		}
	}
	s.stats.CoarseClusters = local
	if s.distributed {
		if err := s.gatherClusters(clusters); err != nil {
			return err
		}
	}
	cg, err := graph.Coarsen(graphs, clusters)
	if err != nil {
		return err
	}
	s.cg = cg
	return nil
}

var _ transport.SweepExecutor = (*Solver)(nil)
var _ transport.ContextSweeper = (*Solver)(nil)
var _ transport.CycleLagger = (*Solver)(nil)
var _ transport.CycleLagger = (*Reference)(nil)
