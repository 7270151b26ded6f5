package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units and bounds; smoke_test.go fails when the two drift
// apart. README.md gives each metric's definition.

import "fmt"

// metricDef describes one reported metric.
type metricDef struct {
	name, unit   string
	higherBetter bool
	// bound is the share of the parent's median by which a gated
	// end-to-end metric may worsen; 0 for metrics without a gate.
	bound float64
	// layer is the repo package a per-layer metric measures.
	layer string
}

// endToEnd are the gated metrics: what a user of the solver or of the
// daemon pays. Every workload reports every one of them, and none is ever
// zero, so each has a defined relative bound. Wall times carry the widest
// bound the pipeline allows because on the shared 2-core build host a
// run's whole time distribution, its minimum included, drifts by more than
// 10 % between runs (README.md, "Bounds"); counts repeat to a fraction of
// a percent.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "iter_ms", unit: "ms", bound: 0.25},
	{name: "job_ms", unit: "ms", bound: 0.25},
	{name: "allocs_per_iter", unit: "count", bound: 0.02},
	{name: "wire_kb_per_iter", unit: "KiB", bound: 0.02},
}

// perLayer are the metrics of single layers (and the derived, not-gated
// figures printed beside the end-to-end ones). A workload that never runs
// a layer reports 0 for it: the "predicted no change" cells of README.md.
var perLayer = []metricDef{
	// Printed in every row beside the gated metrics, deliberately not gated.
	{name: "iter_median_ms", unit: "ms", layer: "transport"},
	{name: "job_median_ms", unit: "ms", layer: "serve"},
	{name: "iter_p90_ms", unit: "ms", layer: "transport"},
	{name: "job_p90_ms", unit: "ms", layer: "serve"},
	{name: "speedup_vs_ref", unit: "ratio", higherBetter: true, layer: "sweep"},
	{name: "parallel_eff", unit: "ratio", higherBetter: true, layer: "core"},
	{name: "trace_overhead", unit: "ratio", layer: "benchmark"},
	{name: "setup_span_share", unit: "ratio", higherBetter: true, layer: "benchmark"},

	{name: "kernel_ns_per_cell", unit: "ns", layer: "transport"},
	{name: "kernel_ms_per_iter", unit: "ms", layer: "transport"},
	{name: "source_ms", unit: "ms", layer: "transport"},
	{name: "residual_ms", unit: "ms", layer: "transport"},
	{name: "iters", unit: "count", layer: "transport"},

	{name: "ref_iter_ms", unit: "ms", layer: "sweep"},
	{name: "sweep_ms", unit: "ms", layer: "sweep"},
	{name: "compute_calls_per_iter", unit: "count", layer: "sweep"},
	{name: "streams_per_iter", unit: "count", layer: "sweep"},

	{name: "seq_iter_ms", unit: "ms", layer: "core"},
	{name: "codec_ns_per_stream", unit: "ns", layer: "core"},

	{name: "worker_busy_share", unit: "ratio", higherBetter: true, layer: "runtime"},
	{name: "pack_ms_per_iter", unit: "ms", layer: "runtime"},
	{name: "unpack_ms_per_iter", unit: "ms", layer: "runtime"},
	{name: "cycles_per_iter", unit: "count", layer: "runtime"},
	{name: "remote_streams_per_iter", unit: "count", layer: "runtime"},
	{name: "msgs_per_iter", unit: "count", layer: "runtime"},
	{name: "streams_per_batch", unit: "count", higherBetter: true, layer: "runtime"},

	{name: "allexchange_mem_us", unit: "us", layer: "comm"},
	{name: "allexchange_tcp_us", unit: "us", layer: "comm"},
	{name: "mem_rtt_us", unit: "us", layer: "comm"},

	{name: "rtt_shm_4k_us", unit: "us", layer: "netcomm"},
	{name: "rtt_uds_4k_us", unit: "us", layer: "netcomm"},
	{name: "rtt_tcp_4k_us", unit: "us", layer: "netcomm"},
	{name: "rtt_shm_frame_us", unit: "us", layer: "netcomm"},
	{name: "rtt_uds_frame_us", unit: "us", layer: "netcomm"},
	{name: "rtt_tcp_frame_us", unit: "us", layer: "netcomm"},
	{name: "frames_per_iter", unit: "count", layer: "netcomm"},
	{name: "wire_over_stream_bytes", unit: "ratio", layer: "netcomm"},
	{name: "join_s", unit: "s", layer: "netcomm"},
	{name: "iter_mem_ms", unit: "ms", layer: "netcomm"},
	{name: "iter_shm_ms", unit: "ms", layer: "netcomm"},
	{name: "iter_uds_ms", unit: "ms", layer: "netcomm"},

	{name: "build_s", unit: "s", layer: "nodespec"},
	{name: "solver_init_s", unit: "s", layer: "sweep"},

	{name: "admit_ms", unit: "ms", layer: "serve"},
	{name: "grant_wait_ms", unit: "ms", layer: "serve"},
	{name: "run_ms", unit: "ms", layer: "serve"},
	{name: "warm_hit_ratio", unit: "ratio", higherBetter: true, layer: "serve"},
	{name: "envelope_ms", unit: "ms", layer: "serve"},
	{name: "admit_accepted", unit: "count", higherBetter: true, layer: "serve"},
	{name: "admit_rejected", unit: "count", layer: "serve"},
}

// sample is one measured metric value with the number of samples behind
// it (1 for a count read once).
type sample struct {
	v float64
	n int
}

// report is what one run of one workload measured.
type report struct {
	workload string
	// desc is the resolved problem line for the human-readable header.
	desc string
	// oracle says how the flux was checked.
	oracle string
	// attempted and failed count operations: source iterations on the
	// solver workloads, jobs on serve.mix.
	attempted, failed int
	values            map[string]sample
	// notes are extra lines for the human-readable table.
	notes []string
	// layers is the self-time table of the traced run (nil when untraced).
	layers []layerRow
	spans  []span
}

func (r *report) set(name string, v float64, n int) {
	if r.values == nil {
		r.values = make(map[string]sample)
	}
	r.values[name] = sample{v: v, n: n}
}

func (r *report) get(name string) float64 { return r.values[name].v }

// tail notes the highest percentile of the samples that still has ten
// samples beyond it: the fixed-name p90 metrics only mean that much when
// n >= 100.
func (r *report) tail(what string, xs []float64) {
	if p := tailPercentile(len(xs)); p > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s tail: p%g = %.6g ms (highest percentile with >= 10 samples beyond it, n=%d)",
			what, p, percentile(xs, p), len(xs)))
	} else {
		r.notes = append(r.notes, fmt.Sprintf("%s tail: n=%d is too few for any percentile to have 10 samples beyond it", what, len(xs)))
	}
}
