package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCode keeps the names in BENCHMARK.json and the names
// in code from drifting apart.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, gated bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.higherBetter {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, code has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, better)
			}
			switch {
			case gated && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in code %v (must be in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			case !gated && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs all four workloads at -smoke sizes, untraced and traced,
// and checks that every metric BENCHMARK.json names is emitted with its
// unit, that every operation reproduced the oracle's flux, and that the
// span file is well formed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs solver sessions and a daemon")
	}
	m := readManifest(t)
	// The benchmark keeps its socket directory under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			args := []string{"-smoke", "-oversubscribe", "-seconds", "0.1", "-workload", w.Name, "-seed", "3", "-trace", "0"}
			want := m.EndToEnd
			spanFile := filepath.Join(dir, w.Name+".jsonl")
			if traced {
				args = append(args[:len(args)-1], "1", "-spans", spanFile)
				want = m.PerLayer
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s\n%s", w.Name, traced, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v\n%s", w.Name, traced, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s: emitted=%v unit %q, want unit %q", w.Name, traced, d.Name, ok, got.Unit, d.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: gated metric %s = %v, must never be 0", w.Name, d.Name, got.Value)
				}
				if !traced && !strings.Contains(stdout.String(), " "+d.Name+" ") {
					t.Errorf("%s: the table does not print %s", w.Name, d.Name)
				}
			}
			if !strings.Contains(stdout.String(), "failed_share") {
				t.Errorf("%s: the table does not print failed_share", w.Name)
			}
			if traced {
				checkSpanFile(t, spanFile)
			}
		}
	}
}

// checkSpanFile checks that the JSONL span file parses and that its
// hierarchy holds: ids are unique, parents exist and contain their
// children.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	if _, err := selfTimes(spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	ops := make(map[string]bool)
	for _, s := range spans {
		if s.Op == "" || s.Name == "" || s.End < s.Start {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		ops[s.Op] = true
	}
	if len(ops) < 2 {
		t.Errorf("%s: spans of only %d operation(s)", path, len(ops))
	}
}

// TestSetsCheck runs the repeatability mode end to end. Smoke-sized
// timings are too short to agree, so only the table is checked, not the
// verdict.
func TestSetsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs solver sessions")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-oversubscribe", "-seconds", "0.1", "-workload", "koba32s2.tcp", "-sets", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"repeatability", "wire_kb_per_iter", "bound"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-sets 2 output lacks %q:\n%s", want, stdout.String())
		}
	}
}
