// Command benchmark is the one instrument for the sweep stack: four
// workloads, end-to-end metrics per source iteration and per served job,
// and — in the traced run — per-layer metrics measured from outside the
// program. See README.md for every definition.
//
//	go run . -workload koba32.inproc -seed 1 -seconds 15 -trace 0
//	go run . -trace 1 -spans out.jsonl   # all workloads, traced
//	go run . -sets 2 -check              # repeatability of this build
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// options are the settings of one workload run.
type options struct {
	seed          int64
	duration      time.Duration
	trace         bool
	smoke         bool
	oversubscribe bool
	sockDir       string
	// setups is how many cold set-ups a run times (their median is
	// setup_s); minSolves/minJobs the least timed work whatever the run
	// length; warmPer the warm jobs in each group of a serve.mix block (a
	// group ends in one cold variant); warmJobs the discarded warm-up jobs.
	setups, minSolves, minJobs, warmPer, warmJobs int
}

// workload is one runnable entry of the suite.
type workload struct {
	name, why string
	run       func(options) (*report, error)
}

func workloads() []workload {
	var ws []workload
	for _, sw := range solverWorkloads {
		ws = append(ws, workload{name: sw.name, why: sw.why, run: func(o options) (*report, error) { return runSolver(sw, o) }})
	}
	return append(ws, workload{name: serveName, why: serveWhy, run: runServe})
}

// coldSetups times o.setups cold set-ups through open, closes all but the
// last and returns that one: the system the workload then measures. It
// reports setup_s, their median, and in the traced run how much of the
// set-up span its children cover.
func coldSetups[T interface{ close() }](rep *report, rec *recorder, o options, open func(op string, parent int) (T, error)) (T, error) {
	var last T
	var times, cover []float64
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			last.close()
		}
		goruntime.GC()
		op := fmt.Sprintf("setup-%d", i+1)
		id := rec.reserve("setup", op, 0)
		t0 := time.Now()
		sys, err := open(op, id)
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		rec.finish(id, t0, t1)
		last = sys
		times = append(times, t1.Sub(t0).Seconds())
		if rec != nil {
			cover = append(cover, float64(rec.childCover(id))/float64(t1.Sub(t0)))
		}
	}
	rep.set("setup_s", median(times), len(times))
	if rec != nil {
		rep.set("setup_span_share", median(cover), len(cover))
	}
	return last, nil
}

// finishTrace folds the recorder into the report's layer table.
func finishTrace(rep *report, rec *recorder) (*report, error) {
	if rec == nil {
		return rep, nil
	}
	rep.spans = rec.all()
	rows, err := selfTimes(rep.spans)
	if err != nil {
		return nil, err
	}
	rep.layers = rows
	return rep, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (serve.mix job order and cold variants, the ball's target cell count)")
	seconds := fs.Float64("seconds", 24, "length of each workload's timed region")
	trace := fs.Int("trace", 0, "1 = the traced run: record spans, run the layer probes, report per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1: write the recorded spans to this file as JSONL")
	smoke := fs.Bool("smoke", false, "tiny sizes (Kobayashi-8, ball-1000, 12 jobs) for tests")
	sets := fs.Int("sets", 1, "run the whole suite this many times, interleaved (A B C D, A B C D)")
	check := fs.Bool("check", false, "with -sets N: exit 1 when the sets disagree by more than a metric's bound")
	over := fs.Bool("oversubscribe", false, "run workloads needing more ranks x workers than the host has cores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sets < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: -sets must be at least 1 and -seconds not negative")
		return 2
	}
	o := options{
		seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0,
		smoke: *smoke, oversubscribe: *over,
		setups: 5, minSolves: 2, minJobs: 24, warmPer: 7, warmJobs: 12,
	}
	if o.smoke {
		o.setups, o.warmPer, o.warmJobs, o.minJobs = 2, 3, 3, 12
	}
	selected := workloads()
	if *name != "" {
		selected = nil
		for _, w := range workloads() {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	sockDir, err := makeSockDir()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(sockDir)
	o.sockDir = sockDir

	fmt.Fprintf(stdout, "# jsweep benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g trace=%d smoke=%v sets=%d\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), gitCommit(), o.seed, *seconds, *trace, o.smoke, *sets)

	// byMetric[workload][metric] holds one value per set.
	byMetric := make(map[string]map[string][]float64)
	var allSpans []span
	ok := true
	var last *report
	for set := 0; set < *sets; set++ {
		for _, w := range selected {
			rep, err := w.run(o)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			printReport(stdout, rep, w.why, o)
			if rep.failed > 0 {
				ok = false
			}
			if byMetric[w.name] == nil {
				byMetric[w.name] = make(map[string][]float64)
			}
			for _, m := range endToEnd {
				byMetric[w.name][m.name] = append(byMetric[w.name][m.name], rep.get(m.name))
			}
			allSpans = append(allSpans, rep.spans...)
			last = rep
		}
	}
	if *spans != "" {
		if err := writeSpanFile(*spans, allSpans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *sets > 1 && !printAgreement(stdout, selected, byMetric) && *check {
		ok = false
	}
	// The result line of the last workload run: the pipeline's contract.
	if err := printResult(stdout, last, o); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport writes the human-readable table of one workload run: every
// metric by name, with its unit and the number of samples behind it.
func printReport(w io.Writer, rep *report, why string, o options) {
	fmt.Fprintf(w, "\n== %s — %s\n   %s\n   oracle: %s\n", rep.workload, why, rep.desc, rep.oracle)
	share := float64(rep.failed) / float64(rep.attempted)
	fmt.Fprintf(w, "   operations: attempted=%d failed=%d\n", rep.attempted, rep.failed)
	fmt.Fprintf(w, "  end-to-end (gated)\n")
	for _, m := range endToEnd {
		s := rep.values[m.name]
		fmt.Fprintf(w, "    %-24s %14.6g %-6s n=%-6d bound %.2f\n", m.name, s.v, m.unit, s.n, m.bound)
	}
	fmt.Fprintf(w, "    %-24s %14.6g %-6s n=%-6d must be 0\n", "failed_share", share, "ratio", rep.attempted)
	for _, note := range rep.notes {
		fmt.Fprintf(w, "    %s\n", note)
	}
	fmt.Fprintf(w, "  per layer and derived (not gated; 0 = this workload does not run that layer)\n")
	for _, m := range perLayer {
		s, measured := rep.values[m.name]
		if !measured {
			continue
		}
		fmt.Fprintf(w, "    %-24s %14.6g %-6s n=%-6d %s\n", m.name, s.v, m.unit, s.n, m.layer)
	}
	if rep.layers != nil {
		fmt.Fprintf(w, "  spans (self = span minus the part its children cover)\n")
		fmt.Fprintf(w, "    %-26s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
		for _, row := range rep.layers {
			fmt.Fprintf(w, "    %-26s %8d %12.3f %12.3f\n", row.name, row.count, ms(row.total), ms(row.self))
		}
		if c := rep.get("setup_span_share"); c < 0.95 || c > 1.0001 {
			fmt.Fprintf(w, "    WARNING: set-up child spans cover %.3f of setup (expected within 5 %%)\n", c)
		}
	}
}

// printAgreement prints, per workload and gated metric, the values of
// every set and their disagreement against the bound. It reports whether
// all agree.
func printAgreement(w io.Writer, ws []workload, byMetric map[string]map[string][]float64) bool {
	agree := true
	fmt.Fprintf(w, "\n== repeatability: sets of the same build against each metric's bound\n")
	fmt.Fprintf(w, "   %-16s %-18s %-40s %8s %6s  %s\n", "workload", "metric", "value per set", "spread", "bound", "verdict")
	for _, wl := range ws {
		for _, m := range endToEnd {
			vals := byMetric[wl.name][m.name]
			half := len(vals) / 2
			// The same build measured twice must not look like a regression
			// in either direction.
			v := compare(vals[:half], vals[half:], m.higherBetter, m.bound)
			if v == within {
				v = compare(vals[half:], vals[:half], m.higherBetter, m.bound)
			}
			lo, hi := sorted(vals)[0], sorted(vals)[len(vals)-1]
			var cells []string
			for _, x := range vals {
				cells = append(cells, fmt.Sprintf("%.5g", x))
			}
			fmt.Fprintf(w, "   %-16s %-18s %-40s %8.4f %6.2f  %s\n", wl.name, m.name, strings.Join(cells, " "),
				(hi-lo)/median(vals), m.bound, v)
			if v != within {
				agree = false
			}
		}
	}
	return agree
}

// printResult writes the machine-readable last line: the gated metrics of
// an untraced run, the per-layer metrics of a traced one.
func printResult(w io.Writer, rep *report, o options) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, m := range defs {
		s, measured := rep.values[m.name]
		if !measured && !o.trace {
			missing = append(missing, m.name)
		}
		metrics[m.name] = value{Value: s.v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s did not measure %v", rep.workload, missing)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
