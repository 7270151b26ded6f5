package serve

// Observability tests: the warm-pool hit/miss counters pinned across a
// warm-reuse job sequence, the Stats snapshot, the /metrics, /healthz
// and /statusz endpoints, and the solve trace riding back inside the
// result meta.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"jsweep/internal/nodespec"
	"jsweep/internal/obs"
)

// runJob submits spec and waits for its result.
func runJob(t *testing.T, c *Client, spec nodespec.Spec) *nodespec.NodeResult {
	t.Helper()
	ctx := context.Background()
	h, err := c.Submit(ctx, Request{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestServeWarmPoolCounters pins the warm-pool hit/miss counts across a
// warm-reuse sequence: cold koba (miss), warm koba (hit), cold cyclic
// (miss, different shape), warm koba again (hit) — and the Stats
// snapshot must agree field by field.
func TestServeWarmPoolCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon solve skipped in -short mode")
	}
	srv := startServer(t, Config{MaxJobs: 1, PoolSize: 2, Log: testWriter(t)})
	c := NewClient(srv.Addr())

	runJob(t, c, quickSpec())  // cold: miss
	runJob(t, c, quickSpec())  // warm: hit
	runJob(t, c, cyclicSpec()) // different shape: miss
	runJob(t, c, quickSpec())  // warm again: hit

	st := srv.Stats()
	if st.WarmMisses != 2 || st.WarmHits != 2 {
		t.Fatalf("warm counters: hits=%d misses=%d, want 2/2", st.WarmHits, st.WarmMisses)
	}
	if st.WarmNodes != 2 {
		t.Fatalf("warm pool size: %d, want 2 (koba + cyclic parked)", st.WarmNodes)
	}
	if st.JobsDone != 4 || st.JobsFailed != 0 || st.Abandoned != 0 {
		t.Fatalf("job counts: done=%d failed=%d abandoned=%d, want 4/0/0",
			st.JobsDone, st.JobsFailed, st.Abandoned)
	}
	if st.Admissions["accepted"] != 4 {
		t.Fatalf("accepted admissions: %d, want 4", st.Admissions["accepted"])
	}
	if st.Queued != 0 || st.Running != 0 || st.BusySlots != 0 {
		t.Fatalf("idle daemon reports queued=%d running=%d busy=%d", st.Queued, st.Running, st.BusySlots)
	}
	if st.Slots <= 0 {
		t.Fatalf("advertised slots: %d, want > 0", st.Slots)
	}
}

// TestServeResultTrace: a full job's result carries the solve's span
// trace (per-iteration phases), and the daemon's own tracer holds the
// job lifecycle.
func TestServeResultTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon solve skipped in -short mode")
	}
	srv := startServer(t, Config{MaxJobs: 1, Log: testWriter(t)})
	c := NewClient(srv.Addr())

	r := runJob(t, c, quickSpec())
	phases := map[string]int{}
	for _, ev := range r.Trace {
		phases[ev.Name]++
	}
	iters := r.Result.Iterations
	for _, name := range []string{"iter.source", "iter.sweep", "iter.residual"} {
		if phases[name] != iters {
			t.Fatalf("trace has %d %s events, want %d (one per iteration); phases=%v",
				phases[name], name, iters, phases)
		}
	}

	lifecycle := map[string]bool{}
	for _, ev := range srv.Trace() {
		lifecycle[ev.Name] = true
	}
	for _, name := range []string{"job.submitted", "job.granted", "job.running", "job.result"} {
		if !lifecycle[name] {
			t.Fatalf("server trace missing %s: %v", name, lifecycle)
		}
	}
}

// TestServeMetricsEndpoints: /metrics serves Prometheus text with the
// queue/slot/warm-pool families, /healthz answers ok, and /statusz is
// one JSON object carrying stats, metric snapshots and the job trace.
func TestServeMetricsEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon solve skipped in -short mode")
	}
	srv := startServer(t, Config{MaxJobs: 1, MetricsAddr: "127.0.0.1:0", Log: testWriter(t)})
	if srv.MetricsAddr() == "" {
		t.Fatal("MetricsAddr empty after Start with MetricsAddr configured")
	}
	c := NewClient(srv.Addr())
	runJob(t, c, quickSpec())

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.MetricsAddr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type: %q", ctype)
	}
	for _, want := range []string{
		"# TYPE jsweep_serve_queue_depth gauge",
		"jsweep_serve_slots_busy 0",
		"jsweep_serve_slots_total",
		"jsweep_serve_warm_pool_hits_total 0",
		"jsweep_serve_warm_pool_misses_total 1",
		`jsweep_serve_admissions_total{code="accepted"} 1`,
		`jsweep_serve_job_duration_seconds_count{outcome="ok"} 1`,
		"jsweep_serve_grant_wait_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	health, _ := get("/healthz")
	if health != "ok\n" {
		t.Fatalf("/healthz = %q", health)
	}

	statusz, ctype := get("/statusz")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/statusz content type: %q", ctype)
	}
	var body struct {
		Addr    string               `json:"addr"`
		Stats   Stats                `json:"stats"`
		Metrics []obs.MetricSnapshot `json:"metrics"`
		Trace   []obs.Event          `json:"trace"`
	}
	if err := json.Unmarshal([]byte(statusz), &body); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, statusz)
	}
	if body.Addr != srv.Addr() {
		t.Fatalf("/statusz addr = %q, want %q", body.Addr, srv.Addr())
	}
	if body.Stats.JobsDone != 1 || body.Stats.WarmMisses != 1 {
		t.Fatalf("/statusz stats: %+v", body.Stats)
	}
	if len(body.Metrics) == 0 {
		t.Fatal("/statusz carries no metric snapshots")
	}
	sawResult := false
	for _, ev := range body.Trace {
		if ev.Name == "job.result" {
			sawResult = true
		}
	}
	if !sawResult {
		t.Fatalf("/statusz trace missing job.result: %v", body.Trace)
	}
}
