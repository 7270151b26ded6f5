package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"jsweep/internal/comm"
	"jsweep/internal/netcomm"
	"jsweep/internal/nodespec"
)

// NetBackend compares the in-memory transport against the wire
// backends (shared-memory rings, Unix-domain sockets, TCP) on the same
// Kobayashi solve, aggregation off and on: per-iteration wall time,
// heap allocations, transport messages, wire frames and bytes actually
// on the wire. The wire rows run the full netcomm stack (rendezvous,
// peer mesh, framing, coalescing, buffer recycling) over loopback with
// one solver node per rank — the same code path jsweep-node uses,
// minus process isolation — and every backend/aggregation combination
// must land on the identical flux bit pattern.
func NetBackend(f Fidelity, w io.Writer) ([]Point, error) {
	spec := nodespec.Spec{
		Mesh: "kobayashi", N: 16, SnOrder: 2, Scatter: true,
		Procs: 4, Workers: 2, Grain: 64, Tol: 1e-7,
	}
	switch f {
	case Standard:
		spec.SnOrder = 4
	case Paper:
		spec.N = 24
		spec.SnOrder = 4
	}
	fmt.Fprintf(w, "Transport backends (%s): Kobayashi-%d S%d, %d ranks × %d workers\n",
		f, spec.N, spec.SnOrder, spec.Procs, spec.Workers)
	fmt.Fprintf(w, "  %-12s %6s %10s %12s %12s %10s %12s %12s %10s\n",
		"backend", "agg", "iters", "s/iter", "allocs/iter", "messages", "bytes", "wire-frames", "wire-KB")

	var pts []Point
	hashes := map[string]string{}
	for _, backend := range []string{"mem", "shm", "uds", "tcp"} {
		for _, agg := range []bool{false, true} {
			s := spec
			s.Agg = agg
			res, perIter, allocsPerIter, err := runBest(backend, s)
			if err != nil {
				return nil, fmt.Errorf("bench: %s agg=%v: %w", backend, agg, err)
			}
			iters := res.Result.Iterations
			cs := res.Cluster
			fmt.Fprintf(w, "  %-12s %6v %10d %12.5f %12.0f %10d %12d %12d %10.1f\n",
				backend, agg, iters, perIter, allocsPerIter, cs.Messages, cs.BytesSent, cs.Frames, float64(cs.WireBytes)/1024)
			series := fmt.Sprintf("%s-agg-%v", backend, agg)
			pts = append(pts,
				Point{Series: series + "-s-per-iter", X: float64(spec.Procs), Value: perIter},
				Point{Series: series + "-allocs-per-iter", X: float64(spec.Procs), Value: allocsPerIter},
				Point{Series: series + "-messages", X: float64(spec.Procs), Value: float64(cs.Messages)},
				Point{Series: series + "-bytes", X: float64(spec.Procs), Value: float64(cs.BytesSent)},
				Point{Series: series + "-wire-frames", X: float64(spec.Procs), Value: float64(cs.Frames)},
				Point{Series: series + "-wire-bytes", X: float64(spec.Procs), Value: float64(cs.WireBytes)},
			)
			hashes[series] = res.FluxHash
			if backend != "mem" {
				want := int64(spec.Procs * (spec.Procs - 1))
				if (backend == "uds" || backend == "shm") && cs.FastPairs != want {
					return nil, fmt.Errorf("bench: %s: %d fast pairs, want %d", backend, cs.FastPairs, want)
				}
				if backend == "shm" && cs.ShmPairs != want {
					return nil, fmt.Errorf("bench: shm: %d shm pairs, want %d", cs.ShmPairs, want)
				}
				if backend == "tcp" && cs.FastPairs != 0 {
					return nil, fmt.Errorf("bench: tcp: %d fast pairs, want 0", cs.FastPairs)
				}
			}
			if agg && cs.Messages >= cs.RemoteStreams && cs.RemoteStreams > 0 {
				return nil, fmt.Errorf("bench: %s: aggregation not coalescing (%d messages for %d streams)",
					backend, cs.Messages, cs.RemoteStreams)
			}
		}
	}

	// Wire microbenchmark: the solves above are compute-bound (the
	// wire flavor is a rounding error in s/iter), so isolate the
	// wires with a 2-rank ping-pong over the data lane — this is
	// where the same-host tiers earn their keep.
	for _, wire := range []netcomm.Wire{netcomm.WireShm, netcomm.WireUDS, netcomm.WireTCP} {
		name := wire.String()
		rtt, err := pingPong(wire, 4096, 2000)
		if err != nil {
			return nil, fmt.Errorf("bench: %s ping-pong: %w", name, err)
		}
		fmt.Fprintf(w, "  wire ping-pong (%s, 4 KiB): %.1f µs/roundtrip\n", name, rtt)
		pts = append(pts, Point{Series: name + "-rtt-us", X: 4096, Value: rtt})
	}

	// Cross-backend bitwise agreement: the whole point of the pluggable
	// transport is that the backend never changes the answer.
	first := ""
	for series, h := range hashes {
		if first == "" {
			first = h
		} else if h != first {
			return nil, fmt.Errorf("bench: flux hash of %s diverged (%s vs %s)", series, h, first)
		}
	}
	fmt.Fprintf(w, "  flux bit pattern identical across all %d runs (%s)\n", len(hashes), first)
	return pts, nil
}

// runBest runs a backend/spec combination netReps times and keeps the
// best per-iteration wall time and allocation count of any rep (the
// stats and flux hash come from the last run — they are deterministic
// across reps). Best-of-N is what makes the uds-vs-tcp comparison
// meaningful at quick fidelity, where one solve is short enough for
// scheduler noise to swamp the socket difference.
func runBest(backend string, s nodespec.Spec) (res *nodespec.NodeResult, perIter, allocsPerIter float64, err error) {
	for rep := 0; rep < netReps; rep++ {
		before := mallocs()
		switch backend {
		case "mem":
			res, err = runMemSolve(s)
		case "shm":
			res, err = runNetSolve(s, netcomm.WireShm)
		case "uds":
			res, err = runNetSolve(s, netcomm.WireUDS)
		default:
			res, err = runNetSolve(s, netcomm.WireTCP)
		}
		allocs := mallocs() - before
		if err != nil {
			return nil, 0, 0, err
		}
		iters := float64(res.Result.Iterations)
		if p := res.Wall.Seconds() / iters; rep == 0 || p < perIter {
			perIter = p
		}
		if a := float64(allocs) / iters; rep == 0 || a < allocsPerIter {
			allocsPerIter = a
		}
	}
	return res, perIter, allocsPerIter, nil
}

// netReps is the rep count behind runBest's best-of-N.
const netReps = 3

// pingPong joins a 2-rank cluster over the forced wire flavor and
// measures the mean data-lane round-trip time of a size-byte message
// over rounds exchanges (after a 10% warmup).
func pingPong(wire netcomm.Wire, size, rounds int) (usPerRT float64, err error) {
	cluster := fmt.Sprintf("bench-rtt-%d", time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, 2)
	if err != nil {
		return 0, err
	}
	defer rz.Close()
	trs := make([]*netcomm.Transport, 2)
	errs := make([]error, 2)
	var join sync.WaitGroup
	for r := 0; r < 2; r++ {
		join.Add(1)
		go func(r int) {
			defer join.Done()
			trs[r], errs[r] = netcomm.Join(netcomm.Options{
				Cluster: cluster, Rank: r, World: 2, Rendezvous: rz.Addr(), Wire: wire,
			})
		}(r)
	}
	join.Wait()
	for r, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d join: %w", r, err)
		}
	}
	// Close is collective (like MPI_Finalize): both ranks must close
	// concurrently, or the first Close sits out the full close timeout
	// waiting for a peer EOF that never comes.
	defer func() {
		var cwg sync.WaitGroup
		for _, tr := range trs {
			cwg.Add(1)
			go func(tr *netcomm.Transport) { defer cwg.Done(); tr.Close() }(tr)
		}
		cwg.Wait()
	}()

	recv := func(ep comm.Endpoint) (comm.Message, error) {
		for {
			if m, ok := ep.TryRecv(); ok {
				return m, nil
			}
			select {
			case <-ep.Notify():
			default:
				if err := ep.Err(); err != nil {
					return comm.Message{}, err
				}
				<-ep.Notify()
			}
		}
	}

	// Rank 1 echoes everything back until its transport closes.
	echoDone := make(chan error, 1)
	go func() {
		ep := trs[1].Endpoint(1)
		for i := 0; i < rounds+rounds/10; i++ {
			m, err := recv(ep)
			if err != nil {
				echoDone <- err
				return
			}
			if err := ep.Send(0, m.Data); err != nil {
				echoDone <- err
				return
			}
		}
		echoDone <- nil
	}()

	ep := trs[0].Endpoint(0)
	payload := make([]byte, size)
	var start time.Time
	for i := 0; i < rounds+rounds/10; i++ {
		if i == rounds/10 {
			start = time.Now()
		}
		if err := ep.Send(1, payload); err != nil {
			return 0, err
		}
		if _, err := recv(ep); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := <-echoDone; err != nil {
		return 0, err
	}
	return float64(elapsed.Microseconds()) / float64(rounds), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runMemSolve solves over the in-memory transport (all ranks in this
// process).
func runMemSolve(spec nodespec.Spec) (*nodespec.NodeResult, error) {
	tr, err := comm.NewTransport(spec.Procs)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	return nodespec.RunOn(spec, tr, nodespec.NodeOptions{Rank: 0})
}

// runNetSolve solves over a netcomm backend: one transport and solver
// per rank, connected through a loopback rendezvous, with the wire
// flavor (shm, UDS or TCP) forced so each row measures exactly one
// path.
func runNetSolve(spec nodespec.Spec, wire netcomm.Wire) (*nodespec.NodeResult, error) {
	cluster := fmt.Sprintf("bench-net-%d", time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, spec.Procs)
	if err != nil {
		return nil, err
	}
	defer rz.Close()
	results := make([]*nodespec.NodeResult, spec.Procs)
	errs := make([]error, spec.Procs)
	var wg sync.WaitGroup
	for r := 0; r < spec.Procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := netcomm.Join(netcomm.Options{
				Cluster: cluster, Rank: r, World: spec.Procs, Rendezvous: rz.Addr(),
				Wire: wire,
			})
			if err != nil {
				errs[r] = err
				return
			}
			results[r], errs[r] = nodespec.RunOn(spec, tr, nodespec.NodeOptions{Rank: r})
			if errs[r] != nil {
				tr.Abort() // unblock peers waiting on this rank
			}
			tr.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	for r := 1; r < spec.Procs; r++ {
		if results[r].FluxHash != results[0].FluxHash {
			return nil, fmt.Errorf("rank %d flux hash %s != rank 0 %s", r, results[r].FluxHash, results[0].FluxHash)
		}
	}
	return results[0], nil
}
