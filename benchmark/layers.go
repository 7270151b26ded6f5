package main

// Per-layer probes of the traced run: each times one layer's exported
// calls in isolation, on the workload's own mesh and message sizes, so a
// change in an end-to-end metric can be attributed to a layer.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"jsweep"
	"jsweep/internal/comm"
	"jsweep/internal/core"
	"jsweep/internal/netcomm"
	"jsweep/internal/nodespec"
	"jsweep/internal/transport"
)

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// kernelNs times transport.Problem.SolveCell over every (angle, cell) of
// the mesh with vacuum inflow and returns the median pass's ns per call
// (one call solves all groups of one cell for one direction).
func kernelNs(prob *transport.Problem) (ns float64, calls int) {
	g, mf := prob.Groups, prob.MaxFaces()
	q := make([]float64, g)
	for i := range q {
		q[i] = 1
	}
	in, out, bar := make([]float64, mf*g), make([]float64, mf*g), make([]float64, g)
	cells := prob.M.NumCells()
	calls = cells * prob.Quad.NumAngles()
	var passes []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for _, d := range prob.Quad.Directions {
			for c := 0; c < cells; c++ {
				prob.SolveCell(jsweep.CellID(c), d.Omega, q, in, out, bar)
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(passes), calls
}

// codecNs times core.EncodeStreams + core.DecodeStreams of a one-stream
// batch (aggregation is off by default, so every remote stream travels
// alone) with the given payload size, per stream.
func codecNs(payload int) float64 {
	batch := []core.Stream{{SrcPatch: 1, SrcTask: 2, TgtPatch: 3, TgtTask: 4, Payload: make([]byte, payload)}}
	const reps = 20000
	var buf []byte
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf = core.EncodeStreams(buf[:0], batch)
		if _, err := core.DecodeStreams(buf); err != nil {
			panic(err) // our own encoding cannot fail to decode
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / reps
}

// recv blocks for the next data-lane message of an endpoint.
func recv(ep comm.Endpoint) (comm.Message, error) {
	for {
		if m, ok := ep.TryRecv(); ok {
			return m, nil
		}
		if err := ep.Err(); err != nil {
			return comm.Message{}, err
		}
		<-ep.Notify()
	}
}

// pingPong returns the median data-lane round trip, in µs, of a size-byte
// message between two endpoints; b echoes.
func pingPong(a, b comm.Endpoint, size int) (float64, error) {
	const rounds, warm = 1000, 100
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds+warm; i++ {
			m, err := recv(b)
			if err == nil {
				err = b.Send(a.Rank(), m.Data)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	payload := make([]byte, size)
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds+warm; i++ {
		t0 := time.Now()
		if err := a.Send(b.Rank(), payload); err != nil {
			return 0, err
		}
		if _, err := recv(a); err != nil {
			return 0, err
		}
		if i >= warm {
			rtts = append(rtts, us(time.Since(t0)))
		}
	}
	return median(rtts), <-echoErr
}

// allExchange returns the median time, in µs, of one
// comm.Collective.AllExchange among the endpoints, each contributing a
// size-byte payload, as rank 0 sees it.
func allExchange(eps []comm.Endpoint, size int) (float64, error) {
	const rounds, warm = 100, 10
	var times []float64
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for r, ep := range eps {
		wg.Add(1)
		go func(r int, ep comm.Endpoint) {
			defer wg.Done()
			coll := comm.NewCollective(ep, len(eps))
			payload := make([]byte, size)
			for i := 0; i < rounds+warm; i++ {
				t0 := time.Now()
				if _, err := coll.AllExchange(payload); err != nil {
					errs[r] = err
					return
				}
				if r == 0 && i >= warm {
					times = append(times, us(time.Since(t0)))
				}
			}
		}(r, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// endpoints returns each transport's local endpoint, in rank order.
func endpoints(trs []comm.Transport) []comm.Endpoint {
	var eps []comm.Endpoint
	for _, tr := range trs {
		for _, r := range tr.LocalRanks() {
			eps = append(eps, tr.Endpoint(r))
		}
	}
	return eps
}

// layerProbes fills the per-layer metrics of a solver workload that need
// their own timed loop. meanStream is the workload's mean packed bytes
// per remote stream; oracle the flux hash every transport must reproduce.
func layerProbes(rep *report, w solverWorkload, spec nodespec.Spec, prob *transport.Problem, meanStream int, oracle string, o options) error {
	ns, calls := kernelNs(prob)
	rep.set("kernel_ns_per_cell", ns, 5*calls)
	rep.set("kernel_ms_per_iter", ns*float64(calls)/1e6, 1) // computed: ns × cells × angles

	payload := meanStream - 4 - core.StreamHeaderSize // batch count, stream header
	if payload < 0 {
		payload = 0
	}
	rep.set("codec_ns_per_stream", codecNs(payload), 20000)

	mem, err := comm.NewTransport(2)
	if err != nil {
		return err
	}
	defer mem.Close()
	rtt, err := pingPong(mem.Endpoint(0), mem.Endpoint(1), 4096)
	if err != nil {
		return fmt.Errorf("mem ping-pong: %w", err)
	}
	rep.set("mem_rtt_us", rtt, 1000)

	if w.wire == wireInternal {
		return nil // no collective, no wire on this workload
	}

	// One rank's owned-cell partial, as sweep.exchangePartials packs it.
	partial := 8 + prob.M.NumCells()/spec.Procs*(4+8*prob.Groups)
	x, err := allExchange(endpoints([]comm.Transport{mem}), partial)
	if err != nil {
		return fmt.Errorf("mem AllExchange: %w", err)
	}
	rep.set("allexchange_mem_us", x, 100)

	// The wire tiers alone: round trips at 4 KiB and at the workload's
	// mean message size, and the collective over tcp.
	for _, wire := range []string{wireShm, wireUDS, wireTCP} {
		trs, rz, err := joinRanks(2, wire, o.sockDir, nil, "", 0)
		if err != nil {
			return fmt.Errorf("%s join: %w", wire, err)
		}
		eps := endpoints(trs)
		for _, size := range []struct {
			tag   string
			bytes int
		}{{"4k", 4096}, {"frame", meanStream}} {
			rtt, err := pingPong(eps[0], eps[1], size.bytes)
			if err != nil {
				closeRanks(trs, rz)
				return fmt.Errorf("%s ping-pong: %w", wire, err)
			}
			rep.set(fmt.Sprintf("rtt_%s_%s_us", wire, size.tag), rtt, 1000)
		}
		if wire == wireTCP {
			x, err := allExchange(eps, partial)
			if err != nil {
				closeRanks(trs, rz)
				return fmt.Errorf("tcp AllExchange: %w", err)
			}
			rep.set("allexchange_tcp_us", x, 100)
		}
		closeRanks(trs, rz)
	}

	// The same solve on the other transports, so collective and wire
	// separate by differencing: mem has neither, shm and uds have the
	// collective on a cheaper wire. Every one must land on the same flux.
	for _, wire := range []string{wireMem, wireShm, wireUDS} {
		sess, err := openSession(spec, wire, o.sockDir, nil, "", 0)
		if err != nil {
			return fmt.Errorf("%s session: %w", wire, err)
		}
		var iters []float64
		for i := 0; i < 5; i++ {
			sv, err := sess.solve(context.Background(), false)
			if err != nil {
				sess.close()
				return fmt.Errorf("%s solve: %w", wire, err)
			}
			rep.countSolve(sv, oracle)
			if i > 0 { // the first solve warms the session
				iters = append(iters, median(sv.iterMs()))
			}
		}
		sess.close()
		rep.set("iter_"+wire+"_ms", quiet(iters), len(iters))
	}
	return nil
}

// serveProbes fills the per-layer metrics of serve.mix that need their own
// loop: what the cold builds cost when called directly, the kernel on the
// structured spec, and the envelope the daemon adds around a solve.
func serveProbes(ctx context.Context, rep *report, client *jsweep.Client, base []nodespec.Spec, o options) error {
	rec := newRecorder()
	var structured *transport.Problem
	for b, spec := range base {
		sess, err := openSession(spec, wireInternal, o.sockDir, rec, "probe", 0)
		if err != nil {
			return err
		}
		if b == 0 {
			structured = sess.probs[0]
		}
		sess.close()
	}
	var build, init float64
	for _, sp := range rec.all() {
		switch sp.Name {
		case "nodespec.Build":
			build += sp.dur().Seconds()
		case "sweep.NewSolver":
			init += sp.dur().Seconds()
		}
	}
	rep.set("build_s", build, len(base)) // summed over the base specs
	rep.set("solver_init_s", init, len(base))

	ns, calls := kernelNs(structured)
	rep.set("kernel_ns_per_cell", ns, 5*calls)
	rep.set("kernel_ms_per_iter", ns*float64(calls)/1e6, 1)

	// Envelope: what the daemon adds around a solve — a lone client's
	// submit-to-result latency minus the solve's own wall time, which the
	// daemon reports with the result. Taken per job, so the solve's noise
	// cancels.
	var envelope []float64
	for i := 0; i < 20; i++ {
		js := runJob(ctx, client, jobReq{spec: base[0]})
		if js.err != nil {
			return fmt.Errorf("envelope job: %w", js.err)
		}
		envelope = append(envelope, ms(js.end.Sub(js.submit)-js.res.Wall))
	}
	rep.set("envelope_ms", median(envelope), len(envelope))
	return nil
}

// joinRanks starts a loopback rendezvous and joins n ranks to it as
// goroutines, each with its own netcomm transport over the forced wire.
// Rank 0's join is recorded under parent.
func joinRanks(n int, wire, sockDir string, rec *recorder, op string, parent int) ([]comm.Transport, *netcomm.Rendezvous, error) {
	w, err := netcomm.ParseWire(wire)
	if err != nil {
		return nil, nil, err
	}
	cluster := fmt.Sprintf("benchmark-%s-%d", wire, clusterSeq.Add(1))
	t0 := time.Now()
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, n)
	if err != nil {
		return nil, nil, err
	}
	rec.add("netcomm.StartRendezvous", op, parent, t0, time.Now())
	trs := make([]comm.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t0 := time.Now()
			tr, err := netcomm.Join(netcomm.Options{
				Cluster: cluster, Rank: r, World: n, Rendezvous: rz.Addr(),
				Wire: w, SocketDir: sockDir, Timeout: 30 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			if r == 0 {
				rec.add("netcomm.Join", op, parent, t0, time.Now())
			}
			trs[r] = tr
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			closeRanks(trs, rz)
			return nil, nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return trs, rz, nil
}

// closeRanks closes every transport at once — a socket Close waits for
// the peer's — and then the rendezvous.
func closeRanks(trs []comm.Transport, rz *netcomm.Rendezvous) {
	var wg sync.WaitGroup
	for _, tr := range trs {
		if tr == nil {
			continue // a rank whose join failed
		}
		wg.Add(1)
		go func(tr comm.Transport) {
			defer wg.Done()
			tr.Close()
		}(tr)
	}
	wg.Wait()
	if rz != nil {
		rz.Close()
	}
}
