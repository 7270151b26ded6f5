// Command jsweep-bench regenerates the tables and figures of the JSweep
// paper's evaluation section. Each experiment prints the same rows/series
// the paper reports; EXPERIMENTS.md records the paper-vs-measured
// comparison.
//
// Usage:
//
//	jsweep-bench                      # run everything at standard fidelity
//	jsweep-bench -exp fig12a          # one experiment
//	jsweep-bench -fidelity quick      # seconds-per-experiment shapes
//	jsweep-bench -fidelity paper      # full published parameters (slow)
//	jsweep-bench -list                # list experiment ids and mesh families
//	jsweep-bench -job '{"mesh":"ball","cells":4000,"backend":"sim"}'
//	                                  # time one ad-hoc job spec (any backend)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jsweep"
	"jsweep/internal/bench"
	"jsweep/internal/nodespec"
	"jsweep/internal/prof"
	"jsweep/internal/registry"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the profiles are flushed on every way
// out (os.Exit skips deferred calls).
func run() int {
	var (
		expID    = flag.String("exp", "", "experiment id to run (default: all)")
		fidelity = flag.String("fidelity", "standard", "quick | standard | paper")
		list     = flag.Bool("list", false, "list experiment ids and mesh families, then exit")
		outJSON  = flag.String("out", "", "write the result series as JSON to this file")
		jobSpec  = flag.String("job", "", "time one ad-hoc job: a NodeSpec JSON (mesh from the registry, any backend)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\nmesh families (-job specs): %s\n", registry.Usage())
		fmt.Printf("-job backends: inproc | tcp-launch | sim (tcp-attach needs attach options — use the library API)\n")
		return 0
	}
	if *jobSpec != "" {
		if err := runJob(*jobSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	// Experiments take no context (a -job run does, and a signal surfaces as
	// its error): on a signal, flush the profiles and go.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopProfiles()
		os.Exit(130)
	}()
	f, err := bench.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	exps := bench.All()
	if *expID != "" {
		e, ok := bench.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			return 2
		}
		exps = []bench.Experiment{e}
	}
	results := map[string][]bench.Point{}
	for _, e := range exps {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		t0 := time.Now()
		pts, err := e.Run(f, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			return 1
		}
		results[e.ID] = pts
		fmt.Printf("    (%.1fs)\n\n", time.Since(t0).Seconds())
	}
	if *outJSON != "" {
		data, err := json.MarshalIndent(map[string]any{
			"fidelity":    f.String(),
			"experiments": results,
		}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*outJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", *outJSON)
	}
	return 0
}

// runJob times one ad-hoc declarative job — the quickest way to measure
// a configuration the canned experiments do not cover.
func runJob(specJSON string) error {
	spec, err := nodespec.UnmarshalSpec(specJSON)
	if err != nil {
		return err
	}
	job, err := jsweep.NewJob(spec)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	t0 := time.Now()
	res, err := job.Run(ctx)
	if err != nil {
		return err
	}
	switch res.Backend {
	case jsweep.BackendSim:
		fmt.Printf("job (%s): simulated makespan=%.4fs chunks=%d streams=%d wall=%.3fs\n",
			res.Backend, res.Sim.Makespan, res.Sim.Chunks, res.Sim.Streams, time.Since(t0).Seconds())
	case jsweep.BackendTCPLaunch:
		fmt.Printf("job (%s): flux=%s wall=%.3fs\n", res.Backend, res.FluxHash, res.Wall.Seconds())
	default:
		fmt.Printf("job (%s): iterations=%d residual=%.2e flux=%s wall=%.3fs\n",
			res.Backend, res.Result.Iterations, res.Result.Residual, res.FluxHash, res.Wall.Seconds())
		st := res.Stats
		fmt.Printf("last sweep: computeCalls=%d streams=%d messages=%d\n",
			st.ComputeCalls, st.Streams, st.Runtime.Messages)
	}
	return nil
}
