// Command jsweep-run solves a discrete-ordinates transport problem with
// the JSweep patch-centric data-driven solver, through the declarative
// Job API: the flags assemble one jsweep.NodeSpec, the backend selects
// how it executes, and Ctrl-C cancels the solve cooperatively (workers
// unblock, child processes die, peers observe the abort).
//
// Backends:
//
//	-backend inproc      all ranks as goroutines of this process over
//	                     the in-memory transport (default; alias: mem);
//	-backend tcp-launch  one jsweep-node OS process per rank on this
//	                     host, wired through a local rendezvous; co-located
//	                     ranks talk over shared-memory rings (-wire auto,
//	                     the default, degrading per pair to Unix sockets
//	                     or TCP), forced rings (-wire shm), Unix-domain
//	                     sockets (-wire uds) or plain TCP-loopback
//	                     (-wire tcp); every rank certified to report the
//	                     identical flux bit pattern (alias: tcp);
//	-backend sim         replay the spec's task system on the
//	                     discrete-event cluster simulator.
//
// Instead of executing locally, the same spec can be handed to running
// jsweep-serve daemons: -serve submits the job to one daemon's queue
// (typed admission rejections and all), and -hosts places a tcp-launch
// cluster's ranks across several daemons.
//
//	jsweep-run -mesh kobayashi -n 32 -sn 4 -procs 2 -workers 4
//	jsweep-run -mesh ball -cells 20000 -groups 2 -prio SLBD+SLBD -coarse
//	jsweep-run -mesh cyclic -cells 2000 -verify   # cyclic sweep graphs, lagged
//	jsweep-run -backend tcp-launch -procs 4 -mesh kobayashi -n 16 -verify
//	jsweep-run -backend sim -mesh kobayashi -n 64 -procs 16
//	jsweep-run -serve workhorse:7070 -mesh kobayashi -n 32 -verify
//	jsweep-run -backend tcp-launch -hosts h1:7070,h2:7070 -procs 4 -mesh kobayashi -n 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"jsweep"
	"jsweep/internal/prof"
	"jsweep/internal/registry"
)

func main() {
	var (
		meshKind  = flag.String("mesh", "kobayashi", registry.Usage())
		n         = flag.Int("n", 32, "structured cells per axis (kobayashi)")
		cells     = flag.Int("cells", 20000, "approximate tet count (ball/reactor/cyclic)")
		snOrder   = flag.Int("sn", 4, "Sn quadrature order")
		groups    = flag.Int("groups", 1, "energy groups (ball/reactor)")
		scatter   = flag.Bool("scatter", false, "enable scattering (kobayashi)")
		patch     = flag.Int("patch", 500, "cells per patch (ball/reactor); kobayashi uses n/4 blocks")
		procs     = flag.Int("procs", 2, "process ranks")
		workers   = flag.Int("workers", runtime.NumCPU()/2, "workers per process")
		grain     = flag.Int("grain", 64, "vertex clustering grain")
		prio      = flag.String("prio", "SLBD+SLBD", "patch+vertex priority pair")
		coarse    = flag.Bool("coarse", false, "use the coarsened graph across sweeps (inproc backend)")
		reuse     = flag.Bool("reuse", true, "reuse one runtime session (processes, workers, buffers) across sweeps")
		seq       = flag.Bool("seq", false, "run on the sequential engine (inproc backend)")
		verify    = flag.Bool("verify", false, "cross-check against the serial reference")
		tol       = flag.Float64("tol", 1e-7, "source-iteration tolerance")
		progress  = flag.Bool("progress", false, "print one line per source iteration")
		traceFile = flag.String("trace", "", "write the job's span trace (JSONL: build + per-iteration source/sweep/residual phases) to this file")

		backend   = flag.String("backend", "inproc", "inproc | tcp-launch | sim (aliases: mem, tcp)")
		wire      = flag.String("wire", "auto", "wire flavor between ranks: auto | tcp | uds | shm (auto = shared-memory rings between co-located ranks, then Unix sockets, TCP across hosts)")
		nodeBin   = flag.String("node-bin", "", "jsweep-node binary for -backend tcp-launch (default: next to this binary, then PATH)")
		serveAddr = flag.String("serve", "", "submit the job to this jsweep-serve daemon instead of executing locally")
		hosts     = flag.String("hosts", "", "comma-separated jsweep-serve daemons to place -backend tcp-launch ranks on")

		agg        = flag.Bool("agg", false, "aggregate remote streams into multi-stream frames")
		aggStreams = flag.Int("agg-streams", 0, "max streams per batch (0 = default 64)")
		aggBytes   = flag.Int("agg-bytes", 0, "max bytes per batch (0 = sized from payload geometry)")
		aggFlush   = flag.Duration("agg-flush", 0, "batch flush deadline (0 = default 200µs)")
		aggShards  = flag.Int("agg-shards", 0, "frame shards per destination (0 = default 1)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	// The profiles are written on every way out: a clean return, an error,
	// and a Ctrl-C (which cancels the job and surfaces as its error).
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()
	// log.Fatal skips deferred calls.
	fatal := func(v ...any) {
		stopProfiles()
		log.Fatal(v...)
	}

	spec := jsweep.NodeSpec{
		Mesh: *meshKind, N: *n, Cells: *cells, SnOrder: *snOrder,
		Groups: *groups, Scatter: *scatter, Patch: *patch,
		Backend: parseBackend(*backend), Wire: *wire,
		Procs: *procs, Workers: *workers, Grain: *grain, Prio: *prio,
		ReuseOff: !*reuse, Sequential: *seq, Coarse: *coarse,
		Agg: *agg, AggStreams: *aggStreams, AggBytes: *aggBytes,
		AggShards: *aggShards, AggFlushMicro: int(aggFlush.Microseconds()),
		Tol: *tol,
	}

	progressFn := func(ev jsweep.ProgressEvent) {
		fmt.Printf("iter %3d residual=%.3e computeCalls=%d streams=%d\n",
			ev.Iteration, ev.Residual, ev.Sweep.ComputeCalls, ev.Sweep.Streams)
	}

	// Ctrl-C / SIGTERM cancel the job cooperatively (locally or on the
	// daemon — the submission connection doubles as the job lease).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -serve hands the spec to a daemon's queue instead of executing it
	// here; the result streams back in the same shape a local run yields.
	if *serveAddr != "" {
		if *hosts != "" {
			fatal("-serve submits one job to one daemon; -hosts places a tcp-launch cluster across daemons — pick one")
		}
		opts := []jsweep.JobOption{}
		if *verify {
			opts = append(opts, jsweep.WithVerify())
		}
		if *progress {
			opts = append(opts, jsweep.WithProgress(progressFn))
		}
		h, err := jsweep.NewClient(*serveAddr).Submit(ctx, spec, opts...)
		if err != nil {
			var adm *jsweep.AdmissionError
			if errors.As(err, &adm) {
				fatal(fmt.Sprintf("daemon %s refused the job (%s): %s", *serveAddr, adm.Code, adm.Detail))
			}
			fatal(err)
		}
		fmt.Printf("submitted %s to %s", h.Job(), *serveAddr)
		if p := h.QueuePos(); p > 0 {
			fmt.Printf(" (queued behind %d)", p)
		}
		fmt.Println()
		res, err := h.Wait(ctx)
		if err != nil {
			fatal(err)
		}
		render(spec, res, *verify)
		if err := dumpTrace(*traceFile, res.Trace); err != nil {
			fatal(err)
		}
		return
	}

	opts := []jsweep.JobOption{}
	if *verify {
		opts = append(opts, jsweep.WithVerify())
	}
	if *traceFile != "" {
		if parseBackend(*backend) == jsweep.BackendSim {
			fatal("-trace does not apply to -backend sim (one sweep, virtual time)")
		}
		opts = append(opts, jsweep.WithTrace())
	}
	switch spec.Backend {
	case jsweep.BackendTCPLaunch:
		opts = append(opts, jsweep.WithLog(os.Stdout))
		if *progress {
			// Rank 0 streams its per-iteration events back to us.
			opts = append(opts, jsweep.WithProgress(progressFn))
		}
		if *hosts != "" {
			opts = append(opts, jsweep.WithHosts(strings.Split(*hosts, ",")...))
			fmt.Printf("placing %d ranks across serve daemons %s\n", max(spec.Procs, 1), *hosts)
		} else {
			if *nodeBin != "" {
				opts = append(opts, jsweep.WithNodeCommand([]string{*nodeBin}))
			}
			fmt.Printf("launching %d jsweep-node processes (tcp-launch backend, local rendezvous)\n", max(spec.Procs, 1))
		}
	case jsweep.BackendSim:
		if *verify {
			fatal("-verify does not apply to -backend sim (no flux is computed)")
		}
		if *progress {
			fatal("-progress does not apply to -backend sim (one sweep, virtual time)")
		}
	default:
		if *progress {
			opts = append(opts, jsweep.WithProgress(progressFn))
		}
	}

	job, err := jsweep.NewJob(spec, opts...)
	if err != nil {
		fatal(err)
	}

	res, err := job.Run(ctx)
	if err != nil {
		fatal(err)
	}
	render(spec, res, *verify)
	if err := dumpTrace(*traceFile, res.Trace); err != nil {
		fatal(err)
	}
}

// dumpTrace writes a traced job's span events as JSONL.
func dumpTrace(path string, events []jsweep.TraceEvent) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := jsweep.WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d events -> %s\n", len(events), path)
	return nil
}

func render(spec jsweep.NodeSpec, res *jsweep.RunResult, verify bool) {
	switch res.Backend {
	case jsweep.BackendTCPLaunch:
		fmt.Printf("launch ok: %d ranks agree on flux %s (wall %.3fs)\n", spec.Procs, res.FluxHash, res.Wall.Seconds())
		// Rank 0 streams the full result back; a broken stream degrades
		// the launch to this hash-only certificate.
		if r := res.Result; r != nil {
			fmt.Printf("converged=%v iterations=%d residual=%.2e\n", r.Converged, r.Iterations, r.Residual)
			st := res.Stats
			fmt.Printf("last sweep: computeCalls=%d streams=%d coarse=%v\n",
				st.ComputeCalls, st.Streams, st.Coarse)
			for g, rep := range res.Balance {
				fmt.Printf("group %d: production=%.4g absorption=%.4g leakage=%.4g\n",
					g, rep.Production, rep.Absorption, rep.Leakage)
			}
		}
		if verify {
			fmt.Println("verify OK: rank 0 matched the serial reference")
		}
	case jsweep.BackendSim:
		s := res.Sim
		fmt.Printf("simulated sweep: makespan=%.4fs chunks=%d streams=%d (remote %d) bytes=%d\n",
			s.Makespan, s.Chunks, s.Streams, s.RemoteStreams, s.Bytes)
		fmt.Printf("core-seconds: kernel=%.3f graphOp=%.3f pack=%.3f unpack=%.3f route=%.3f idle(worker)=%.3f\n",
			s.Kernel, s.GraphOp, s.Pack, s.Unpack, s.Route, s.WorkerIdle)
		if s.BatchesSent > 0 {
			fmt.Printf("aggregation: batches=%d streams/batch=%.1f deadlineFlushes=%d\n",
				s.BatchesSent, s.StreamsPerBatch, s.FlushOnDeadline)
		}
	default:
		r := res.Result
		fmt.Printf("converged=%v iterations=%d residual=%.2e wall=%.3fs flux=%s\n",
			r.Converged, r.Iterations, r.Residual, res.Wall.Seconds(), res.FluxHash)
		st := res.Stats
		fmt.Printf("last sweep: computeCalls=%d streams=%d coarse=%v\n",
			st.ComputeCalls, st.Streams, st.Coarse)
		if st.LaggedEdges > 0 {
			fmt.Printf("cycle breaking: cellSCCs=%d patchSCCs=%d laggedEdges=%d (old-flux lagging active)\n",
				st.CellSCCs, st.PatchSCCs, st.LaggedEdges)
		}
		if !spec.Sequential && !spec.ReuseOff {
			cum := st.Cumulative
			fmt.Printf("session: roundsRun=%d cycles=%d remoteStreams=%d workerBusy=%.3fs\n",
				cum.RoundsRun, cum.Cycles, cum.RemoteStreams, cum.WorkerBusy.Seconds())
		}
		if spec.Agg {
			rt := st.Runtime
			fmt.Printf("aggregation: remoteStreams=%d batches=%d streams/batch=%.1f deadlineFlushes=%d\n",
				rt.RemoteStreams, rt.BatchesSent, rt.StreamsPerBatch, rt.FlushOnDeadline)
		}
		if verify {
			fmt.Println("verify OK: matched the serial reference")
		}
		for g, rep := range res.Balance {
			fmt.Printf("group %d: production=%.4g absorption=%.4g leakage=%.4g\n",
				g, rep.Production, rep.Absorption, rep.Leakage)
		}
	}
}

// parseBackend maps the flag (with its historical aliases) onto a
// backend selector.
func parseBackend(s string) jsweep.Backend {
	switch s {
	case "mem", "":
		return jsweep.BackendInProc
	case "tcp":
		return jsweep.BackendTCPLaunch
	}
	return jsweep.Backend(s)
}
