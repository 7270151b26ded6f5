package main

// serve.mix: an embedded daemon and two closed-loop clients submitting
// short jobs. Operations are jobs.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"jsweep"
	"jsweep/internal/nodespec"
	"jsweep/internal/runtime"
)

const (
	serveName = "serve.mix"
	serveWhy  = "embedded daemon, 2 closed-loop clients, short jobs from three specs with one cold variant in eight: admission, FIFO grant, warm-pool revive and flux streaming dominate"
	// serveClients is the closed-loop client count: each submits its next
	// job only after the previous one returned.
	serveClients = 2
)

// coldGrains are the Grain values of the cold variants. The warm pool
// keys on the whole solver shape and holds 4 sessions, so a grain that
// recurs only every 8th cold job has always been evicted: a cold variant
// always pays the full build.
var coldGrains = []int{32, 40, 48, 56, 72, 80, 88, 96}

// serveSpecs are the three base specs, all 2 ranks × 1 worker: a
// structured scattering problem, a cyclic mesh (the LagStore path) and an
// unstructured ball.
func serveSpecs(smoke bool) []nodespec.Spec {
	n, cells := 16, 4000
	if smoke {
		n, cells = 8, 600
	}
	return []nodespec.Spec{
		kobayashiSpec(n, 2),
		{Mesh: "cyclic", Cells: cells, SnOrder: 2, Procs: 2, Workers: 1, Tol: 1e-7},
		{Mesh: "ball", Cells: cells, SnOrder: 2, Procs: 2, Workers: 1, Tol: 1e-7},
	}
}

// jobReq is one generated job.
type jobReq struct {
	spec  nodespec.Spec
	base  int // index into the base specs
	cold  bool
	block int // the block of the mix it belongs to, from 1
}

// jobMix generates the job sequence from the seed, in blocks of fixed
// composition so that every run measures the same mix however many blocks
// fit its run length. A block is one group per base spec; a group is
// warmPer warm jobs spread evenly over the base specs, shuffled, followed
// (with cold set) by one cold variant. Every base spec therefore runs
// between two cold variants, and parking a cold session evicts the
// previous cold one, never a base spec's: the warm-hit ratio is a
// property of the mix, not of the shuffle. Pulls end at the first block
// boundary at which stop reports true.
type jobMix struct {
	rng     *rand.Rand
	base    []nodespec.Spec
	warmPer int
	cold    bool
	// stop is asked at each block boundary, with the jobs pulled so far.
	stop func(pulled int) bool

	mu     sync.Mutex
	block  []jobReq // guarded by mu
	next   int      // guarded by mu
	pulled int      // guarded by mu
	colds  int      // guarded by mu
	blocks int      // guarded by mu
}

func (m *jobMix) pull() (jobReq, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.next == len(m.block) {
		if m.stop(m.pulled) {
			return jobReq{}, false
		}
		m.block, m.next = m.block[:0], 0
		m.blocks++
		n := len(m.base)
		for _, coldBase := range m.rng.Perm(n) {
			start := len(m.block)
			for i := 0; i < m.warmPer; i++ {
				// Base specs in turn; the remainder of an uneven split
				// goes to a different spec in each group.
				b := (i + coldBase) % n
				m.block = append(m.block, jobReq{spec: m.base[b], base: b, block: m.blocks})
			}
			group := m.block[start:]
			m.rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			if m.cold {
				spec := m.base[coldBase]
				spec.Grain = coldGrains[m.colds%len(coldGrains)]
				m.colds++
				m.block = append(m.block, jobReq{spec: spec, base: coldBase, cold: true, block: m.blocks})
			}
		}
	}
	req := m.block[m.next]
	m.next++
	m.pulled++
	return req, true
}

// blockCount returns how many blocks the mix has generated.
func (m *jobMix) blockCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blocks
}

// jobSample is one finished job as its client saw it.
type jobSample struct {
	req                       jobReq
	submit, admit, start, end time.Time
	stamps                    []time.Time // client-side arrival of each progress event
	res                       *jsweep.RunResult
	err                       error
}

// runJob submits one job and waits for its result.
func runJob(ctx context.Context, c *jsweep.Client, req jobReq, opts ...jsweep.JobOption) jobSample {
	js := jobSample{req: req}
	opts = append(opts, jsweep.WithProgress(func(jsweep.ProgressEvent) { js.stamps = append(js.stamps, time.Now()) }))
	js.submit = time.Now()
	h, err := c.Submit(ctx, req.spec, opts...)
	js.admit = time.Now()
	if err != nil {
		js.err, js.start, js.end = err, js.admit, js.admit
		return js
	}
	<-h.Started()
	js.start = time.Now()
	js.res, js.err = h.Wait(ctx)
	js.end = time.Now()
	return js
}

// runClients drives the closed loop until the mix stops and returns every
// job in completion order per client.
func runClients(ctx context.Context, c *jsweep.Client, mix *jobMix) []jobSample {
	out := make([][]jobSample, serveClients)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				req, ok := mix.pull()
				if !ok {
					return
				}
				out[i] = append(out[i], runJob(ctx, c, req))
			}
		}(i)
	}
	wg.Wait()
	var all []jobSample
	for _, js := range out {
		all = append(all, js...)
	}
	return all
}

// served is a started daemon with a client on it and the flux hash its
// first job of each base spec produced.
type served struct {
	daemon *jsweep.ServeDaemon
	client *jsweep.Client
	hashes []string
}

func (s *served) close() { s.daemon.Close() }

func runServe(o options) (*report, error) {
	base := serveSpecs(o.smoke)
	for _, s := range base {
		if err := checkCores(s.Procs*s.Workers, o); err != nil {
			return nil, err
		}
	}
	rep := &report{workload: serveName}
	rep.desc = fmt.Sprintf("daemon MaxJobs=1 PoolSize=4, %d closed-loop clients; kobayashi-%d S2, cyclic-%d S2, ball-%d S2, all 2x1; 1 job in %d cold",
		serveClients, base[0].N, base[1].Cells, base[2].Cells, o.warmPer+1)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	guard := newLeakGuard(o.sockDir)
	ctx := context.Background()

	// Set-up: daemon start plus the first job of every base spec, each of
	// which builds its solver from the mesh up.
	sys, err := coldSetups(rep, rec, o, func(op string, parent int) (*served, error) {
		t0 := time.Now()
		d, err := jsweep.Serve(jsweep.ServeConfig{MaxJobs: 1, PoolSize: 4})
		if err != nil {
			return nil, err
		}
		rec.add("jsweep.Serve", op, parent, t0, time.Now())
		sys := &served{daemon: d, client: jsweep.NewClient(d.Addr()), hashes: make([]string, len(base))}
		for b, spec := range base {
			js := runJob(ctx, sys.client, jobReq{spec: spec, base: b})
			if js.err != nil {
				sys.close()
				return nil, fmt.Errorf("cold %s job: %w", spec.Mesh, js.err)
			}
			rec.add("job.cold", op, parent, js.submit, js.end)
			sys.hashes[b] = js.res.FluxHash
		}
		return sys, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	daemon, client, hashes := sys.daemon, sys.client, sys.hashes

	// Oracle: one job per base spec verified by the daemon against the
	// serial Reference; its hash is what every timed job must reproduce —
	// warm or cold, whatever the grain.
	for b, spec := range base {
		js := runJob(ctx, client, jobReq{spec: spec, base: b}, jsweep.WithVerify())
		if js.err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", spec.Mesh, js.err)
		}
		if !js.res.Verified || js.res.FluxHash != hashes[b] {
			return nil, fmt.Errorf("oracle: %s: verified=%v, hash %s vs cold job %s", spec.Mesh, js.res.Verified, js.res.FluxHash, hashes[b])
		}
	}
	rep.oracle = fmt.Sprintf("daemon-verified against sweep.Reference (bitwise; ball 1e-12 relative), hashes %v", hashes)

	rng := rand.New(rand.NewSource(o.seed))
	// Warm-up, discarded: one block without cold variants.
	runClients(ctx, client, &jobMix{rng: rng, base: base, warmPer: o.warmJobs / len(base),
		stop: func(pulled int) bool { return pulled > 0 }})

	var start time.Time
	mix := &jobMix{rng: rng, base: base, warmPer: o.warmPer, cold: true, stop: func(pulled int) bool {
		return pulled >= o.minJobs && time.Since(start) >= o.duration
	}}
	st0, m0 := daemon.Stats(), mallocs()
	start = time.Now()
	jobs := runClients(ctx, client, mix)
	m1, st1 := mallocs(), daemon.Stats()

	// Per block of the mix: the latencies of its untraced and traced jobs
	// and the intervals between its progress events. Every block has the
	// same composition, so block medians compare.
	type blockSamples struct{ lat, tracedLat, iters []float64 }
	blocks := make([]blockSamples, mix.blockCount()+1)
	var lat, admit, grant, run, iterMs []float64
	var iterations int64
	var rt runtime.Stats
	var computeCalls []float64
	for k, js := range jobs {
		rep.attempted++
		if js.err != nil || js.res.FluxHash != hashes[js.req.base] {
			rep.failed++
			continue
		}
		iterations += int64(js.res.Result.Iterations)
		for _, ev := range js.res.Trail {
			accumulate(&rt, ev.Sweep.Runtime, 1)
			computeCalls = append(computeCalls, float64(ev.Sweep.ComputeCalls))
		}
		b := &blocks[js.req.block]
		for i := 1; i < len(js.stamps); i++ {
			d := ms(js.stamps[i].Sub(js.stamps[i-1]))
			b.iters = append(b.iters, d)
			iterMs = append(iterMs, d)
		}
		admit = append(admit, ms(js.admit.Sub(js.submit)))
		grant = append(grant, ms(js.start.Sub(js.admit)))
		run = append(run, ms(js.end.Sub(js.start)))
		if o.trace && k%2 == 1 {
			op := fmt.Sprintf("job-%d", k+1)
			id := rec.add("job", op, 0, js.submit, js.end)
			rec.add("serve.admit", op, id, js.submit, js.admit)
			rec.add("serve.grant_wait", op, id, js.admit, js.start)
			rec.add("serve.run", op, id, js.start, js.end)
			b.tracedLat = append(b.tracedLat, ms(js.end.Sub(js.submit)))
		} else {
			b.lat = append(b.lat, ms(js.end.Sub(js.submit)))
			lat = append(lat, ms(js.end.Sub(js.submit)))
		}
	}
	var blockLat, blockTraced, blockIter []float64
	for _, b := range blocks[1:] {
		if len(b.lat) > 0 {
			blockLat = append(blockLat, median(b.lat))
		}
		if len(b.tracedLat) > 0 {
			blockTraced = append(blockTraced, median(b.tracedLat))
		}
		if len(b.iters) > 0 {
			blockIter = append(blockIter, median(b.iters))
		}
	}
	if iterations == 0 {
		return nil, fmt.Errorf("no job succeeded (%d attempted)", rep.attempted)
	}
	rep.set("job_ms", quiet(blockLat), len(lat))
	rep.set("iter_ms", quiet(blockIter), len(iterMs))
	rep.set("job_median_ms", median(lat), len(lat))
	rep.set("iter_median_ms", median(iterMs), len(iterMs))
	rep.set("allocs_per_iter", float64(m1-m0)/float64(iterations), int(iterations))
	// Every job runs its ranks in-process: the bytes crossing rank
	// boundaries are the packed streams of the in-memory transport.
	rep.set("wire_kb_per_iter", float64(rt.BytesSent)/1024/float64(iterations), int(iterations))
	rep.setRuntime(rt, base[0].Procs*base[0].Workers)
	rep.set("compute_calls_per_iter", median(computeCalls), len(computeCalls))
	rep.set("job_p90_ms", percentile(lat, 90), len(lat))
	rep.set("iter_p90_ms", percentile(iterMs, 90), len(iterMs))
	rep.tail("job", lat)
	rep.set("iters", float64(iterations)/float64(rep.attempted-rep.failed), rep.attempted-rep.failed)
	rep.set("admit_ms", median(admit), len(admit))
	rep.set("grant_wait_ms", median(grant), len(grant))
	rep.set("run_ms", median(run), len(run))
	hits, misses := st1.WarmHits-st0.WarmHits, st1.WarmMisses-st0.WarmMisses
	rep.set("warm_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	accepted := st1.Admissions["accepted"] - st0.Admissions["accepted"]
	var rejected int64
	for code, n := range st1.Admissions {
		if code != "accepted" {
			rejected += n - st0.Admissions[code]
		}
	}
	rep.set("admit_accepted", float64(accepted), 1)
	rep.set("admit_rejected", float64(rejected), 1)

	if o.trace {
		rep.set("trace_overhead", quiet(blockTraced)/quiet(blockLat), len(blockTraced))
		if err := serveProbes(ctx, rep, client, base, o); err != nil {
			return nil, err
		}
	}

	sys.close()
	if err := guard.check(); err != nil {
		return nil, err
	}
	return finishTrace(rep, rec)
}
