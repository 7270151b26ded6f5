package main

// The three solver workloads: long sessions of repeated solves on one
// persistent Solver. Operations are source iterations.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"time"

	"jsweep/internal/nodespec"
	"jsweep/internal/sweep"
	"jsweep/internal/transport"
)

// solverWorkload is a fixed problem solved repeatedly to Tol = 1e-7.
type solverWorkload struct {
	name, why string
	// wire is the transport of the timed session.
	wire string
	// spec builds the problem from the seed; smoke selects the test size.
	spec func(rng *rand.Rand, smoke bool) nodespec.Spec
}

func kobayashiSpec(n, sn int) nodespec.Spec {
	return nodespec.Spec{Mesh: "kobayashi", N: n, SnOrder: sn, Scatter: true, Procs: 2, Workers: 1, Tol: 1e-7}
}

var solverWorkloads = []solverWorkload{
	{
		name: "koba32.inproc",
		why:  "structured Kobayashi-32 S4 on 2 in-process ranks: kernel, patch-programs and runtime scheduling do all the work, wire and collective none",
		wire: wireInternal,
		spec: func(_ *rand.Rand, smoke bool) nodespec.Spec {
			if smoke {
				return kobayashiSpec(8, 4)
			}
			return kobayashiSpec(32, 4)
		},
	},
	{
		name: "ball20k.inproc",
		why:  "unstructured ball of about 22k tets, S4, patch 500: irregular DAGs, twice the streams per cell, heavier partition/graph/priority set-up",
		wire: wireInternal,
		spec: func(rng *rand.Rand, smoke bool) nodespec.Spec {
			// The seed picks the target within ±5 %; the lattice generator
			// rounds up to the next resolution step.
			target := 19000 + rng.Intn(2001)
			if smoke {
				target = 950 + rng.Intn(101)
			}
			return nodespec.Spec{Mesh: "ball", Cells: target, SnOrder: 4, Patch: 500, Procs: 2, Workers: 1, Tol: 1e-7}
		},
	},
	{
		name: "koba32s2.tcp",
		why:  "Kobayashi-32 S2 on 2 ranks over real loopback TCP: the only workload where codec, batcher, netcomm loops and the per-sweep AllExchange run",
		wire: wireTCP,
		spec: func(_ *rand.Rand, smoke bool) nodespec.Spec {
			s := kobayashiSpec(32, 2)
			if smoke {
				s = kobayashiSpec(8, 2)
			}
			s.Wire = wireTCP
			return s
		},
	},
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs reads the process's cumulative heap allocation count. It stops
// the world, so it is only called at the boundaries of a timed region.
func mallocs() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs
}

// fluxMatches is the oracle's comparison, the rule of nodespec.Verify:
// same iteration count, then bitwise on structured and cyclic meshes and
// 1e-12 relative on unstructured ones (the reference accumulates patch
// boundaries in a different global order there).
func fluxMatches(spec nodespec.Spec, want, got *transport.Result) error {
	if want.Iterations != got.Iterations {
		return fmt.Errorf("%d iterations vs reference %d", got.Iterations, want.Iterations)
	}
	bitwise := bitwiseOracle(spec)
	for g := range want.Phi {
		for c, w := range want.Phi[g] {
			h := got.Phi[g][c]
			if bitwise {
				if w != h {
					return fmt.Errorf("group %d cell %d: %v != reference %v (bitwise)", g, c, h, w)
				}
				continue
			}
			if math.Abs(h-w)/math.Max(math.Abs(w), 1) > 1e-12 {
				return fmt.Errorf("group %d cell %d: %v vs reference %v", g, c, h, w)
			}
		}
	}
	return nil
}

// timedIterations runs a solve on any executor and returns the result and
// each iteration's wall time in ms.
func timedIterations(prob *transport.Problem, ex transport.SweepExecutor, cfg transport.IterConfig) (*transport.Result, []float64, error) {
	var iters []float64
	last := time.Now()
	cfg.Progress = func(transport.Progress) {
		now := time.Now()
		iters = append(iters, ms(now.Sub(last)))
		last = now
	}
	res, err := transport.SourceIterate(prob, ex, cfg)
	return res, iters, err
}

// steady drops the first iteration of a solve (cold caches, lazily built
// program state) when more follow.
func steady(iters []float64) []float64 {
	if len(iters) > 1 {
		return iters[1:]
	}
	return iters
}

// runSolver measures one solver workload.
func runSolver(w solverWorkload, o options) (*report, error) {
	spec := w.spec(rand.New(rand.NewSource(o.seed)), o.smoke).Defaulted()
	if err := checkCores(spec.Procs*spec.Workers, o); err != nil {
		return nil, err
	}
	rep := &report{workload: w.name}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	guard := newLeakGuard(o.sockDir)

	sess, err := coldSetups(rep, rec, o, func(op string, parent int) (*session, error) {
		return openSession(spec, w.wire, o.sockDir, rec, op, parent)
	})
	if err != nil {
		return nil, err
	}
	defer sess.close()
	if o.trace {
		for name, metric := range map[string]string{"nodespec.Build": "build_s", "sweep.NewSolver": "solver_init_s", "netcomm.Join": "join_s"} {
			if d := rec.durations(name); len(d) > 0 {
				rep.set(metric, median(d), len(d))
			}
		}
	}
	prob := sess.probs[0]
	cells, angles := prob.M.NumCells(), prob.Quad.NumAngles()
	rep.desc = fmt.Sprintf("%s cells=%d angles=%d groups=%d patches=%d ranks=%dx%d wire=%s",
		spec.Mesh, cells, angles, prob.Groups, sess.patches, spec.Procs, spec.Workers, w.wire)

	// Oracle: the serial Reference on the same mesh, same run. Its
	// iterations are the serial baseline every solver row carries.
	ref, err := sweep.NewReference(prob)
	if err != nil {
		return nil, err
	}
	want, refIters, err := timedIterations(prob, ref, nodespec.IterConfig(spec))
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	ctx := context.Background()
	first, err := sess.solve(ctx, false) // also the discarded warm-up solve
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	if err := fluxMatches(spec, want, first.res); err != nil {
		return nil, fmt.Errorf("oracle: flux differs from sweep.Reference: %w", err)
	}
	oracle := first.hashes[0]
	rule := "1e-12 relative"
	if bitwiseOracle(spec) {
		rule = "bitwise"
	}
	rep.oracle = fmt.Sprintf("converged flux equals sweep.Reference (%s), hash %s", rule, oracle)

	// The same programs on the sequential engine: data-driven overhead
	// with no threads. A few iterations suffice for a per-iteration time.
	seqSpec := spec
	seqSpec.Sequential = true
	seqSpec.MaxIters = 5
	seqSess, err := openSession(seqSpec, wireInternal, o.sockDir, nil, "", 0)
	if err != nil {
		return nil, fmt.Errorf("sequential set-up: %w", err)
	}
	_, seqIters, err := timedIterations(seqSess.probs[0], seqSess.solvers[0], nodespec.IterConfig(seqSpec))
	seqSess.close()
	if err != nil {
		return nil, fmt.Errorf("sequential solve: %w", err)
	}

	// Timed region: whole solves until the run length is used up. In the
	// traced run every second solve carries the tracer, so traced and
	// untraced iterations see the same machine state.
	// plain and traced hold each solve's median iteration time, walls each
	// untraced solve's wall time, all every untraced iteration.
	var plain, traced, walls, all []float64
	phases := map[string][]float64{}
	solves := 0
	c0, m0 := sess.counters(), mallocs()
	start := time.Now()
	for solves < o.minSolves || time.Since(start) < o.duration {
		withTrace := o.trace && solves%2 == 1
		sv, err := sess.solve(ctx, withTrace)
		if err != nil {
			return nil, fmt.Errorf("solve %d: %w", solves+1, err)
		}
		solves++
		rep.countSolve(sv, oracle)
		iters := sv.iterMs()
		if withTrace {
			traced = append(traced, median(iters))
			traceSolve(rec, fmt.Sprintf("solve-%d", solves), sv, phases)
		} else {
			plain = append(plain, median(iters))
			walls = append(walls, ms(sv.wall()))
			all = append(all, iters...)
		}
	}
	m1, c1 := mallocs(), sess.counters()
	iters := float64(rep.attempted)

	iterMs := quiet(plain)
	rep.set("iter_ms", iterMs, len(all))
	rep.set("job_ms", quiet(walls), len(walls))
	rep.set("allocs_per_iter", float64(m1-m0)/iters, rep.attempted)
	// Bytes crossing rank boundaries: on-wire bytes (headers included) on
	// socket transports; the packed stream bytes on the in-memory
	// transport, which has no framing.
	crossed := c1.wireBytes - c0.wireBytes
	if w.wire == wireInternal {
		crossed = c1.rt.BytesSent - c0.rt.BytesSent
	}
	rep.set("wire_kb_per_iter", float64(crossed)/1024/iters, rep.attempted)

	rep.set("iter_median_ms", median(all), len(all))
	rep.set("job_median_ms", median(walls), len(walls))
	rep.set("iter_p90_ms", percentile(all, 90), len(all))
	rep.tail("iteration", all)
	refIters, seqIters = steady(refIters), steady(seqIters)
	refMs, seqMs := median(refIters), median(seqIters)
	rep.set("ref_iter_ms", refMs, len(refIters))
	rep.set("seq_iter_ms", seqMs, len(seqIters))
	rep.set("speedup_vs_ref", refMs/iterMs, 1)
	rep.set("parallel_eff", seqMs/(iterMs*float64(spec.Procs*spec.Workers)), 1)
	rep.set("iters", iters/float64(solves), solves)

	rt := c1.rt
	accumulate(&rt, c0.rt, -1)
	rep.setRuntime(rt, spec.Procs*spec.Workers)
	rep.set("compute_calls_per_iter", float64(c1.computeCalls), 1)
	if w.wire != wireInternal {
		rep.set("frames_per_iter", float64(c1.frames-c0.frames)/float64(rt.RoundsRun), int(rt.RoundsRun))
		rep.set("wire_over_stream_bytes", float64(c1.wireBytes-c0.wireBytes)/float64(rt.BytesSent), 1)
	}

	if o.trace {
		rep.set("trace_overhead", quiet(traced)/iterMs, len(traced))
		for _, phase := range []string{"source", "sweep", "residual"} {
			d := phases["iter."+phase]
			rep.set(phase+"_ms", median(d), len(d))
		}
		meanPayload := 0
		if rt.RemoteStreams > 0 {
			meanPayload = int(rt.BytesSent / rt.RemoteStreams)
		}
		if err := layerProbes(rep, w, spec, prob, meanPayload, oracle, o); err != nil {
			return nil, err
		}
	}

	sess.close()
	if err := guard.check(); err != nil {
		return nil, err
	}
	return finishTrace(rep, rec)
}

// bitwiseOracle reports whether the parallel flux must equal the
// Reference's bit for bit (structured and cyclic meshes) or to 1e-12
// relative (the Reference accumulates an unstructured mesh's patch
// boundaries in a different global order).
func bitwiseOracle(spec nodespec.Spec) bool {
	return spec.Mesh == "kobayashi" || spec.Mesh == "cyclic"
}

// countSolve counts a solve's iterations as attempted, and as failed when
// any rank's flux hash differs from the oracle's.
func (r *report) countSolve(sv solved, oracle string) {
	n := len(sv.stamps)
	r.attempted += n
	for _, h := range sv.hashes {
		if h != oracle {
			r.failed += n
			return
		}
	}
}

// traceSolve records a traced solve: the solve, its iterations as rank 0's
// progress callback stamped them, and under each iteration the phase
// events the IterConfig.Tracer emitted. phases collects each phase's
// durations in ms.
func traceSolve(rec *recorder, op string, sv solved, phases map[string][]float64) {
	n := len(sv.stamps)
	solveID := rec.add("solve", op, 0, sv.start, sv.stamps[n-1])
	iterIDs := make([]int, n+1)
	prev := sv.start
	for i, at := range sv.stamps {
		iterIDs[i+1] = rec.add("iteration", op, solveID, prev, at)
		prev = at
	}
	for _, ev := range sv.events {
		if ev.Iter >= 1 && ev.Iter <= n && ev.Dur > 0 {
			rec.add(ev.Name, op, iterIDs[ev.Iter], ev.Time.Add(-ev.Dur), ev.Time)
			phases[ev.Name] = append(phases[ev.Name], ms(ev.Dur))
		}
	}
}
