package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, metricName)
			}
			if seen[d.name] {
				t.Errorf("metric %q defined twice", d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %q: better is %q", d.name, d.better)
			}
		}
	}
}

// TestBenchmarkFileMatchesDefinitions keeps BENCHMARK.json and the
// code's workload and metric tables in step.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		} else if got := b.Workloads[len(names)-1].Why; got != w.why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.name, got, w.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, code defines %d", len(names), len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound < largest {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, largest)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, code %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// smokeRun runs one workload in its smoke configuration and returns the
// parsed summary line.
func smokeRun(t *testing.T, workload, seed, trace string) summaryLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain([]string{"--workload", workload, "--seed", seed, "--seconds", "0.5", "--trace", trace, "--smoke"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s trace %s: last line %q: %v\n%s", workload, trace, lines[len(lines)-1], err, stderr.String())
	}
	if code != 0 || !s.Correct || s.Attempted < 1 || s.Failed != 0 {
		t.Fatalf("%s trace %s: exit %d, correct %v, attempted %d, failed %d\n%s", workload, trace, code, s.Correct, s.Attempted, s.Failed, stderr.String())
	}
	return s
}

func metricSet(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload untraced and traced in a tiny
// configuration and checks each emits exactly the metrics BENCHMARK.json
// names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service")
	}
	b := loadBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			s := smokeRun(t, w.Name, "1", trace)
			if len(s.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %s: %d metrics, want %d: %v", w.Name, trace, len(s.Metrics), len(want[trace]), metricSet(s.Metrics))
			}
			for name, unit := range want[trace] {
				got, ok := s.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace %s: %s unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %s: %s = %v", w.Name, trace, name, got.Value)
				}
			}
			if trace == "0" {
				for _, m := range b.EndToEnd {
					if s.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetrics checks that the workload seed selects
// the inputs while the set of metrics stays the same.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	for _, w := range workloads {
		a, _, err := w.smoke().inputs(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := w.smoke().inputs(2)
		if err != nil {
			t.Fatal(err)
		}
		if a[0].id == b[0].id {
			t.Errorf("%s: seeds 1 and 2 generate the same graph %s", w.name, a[0].id)
		}
		again, _, _ := w.smoke().inputs(1)
		if again[0].id != a[0].id {
			t.Errorf("%s: seed 1 generated two different graphs", w.name)
		}
	}
	if testing.Short() {
		t.Skip("starts the service")
	}
	s1 := smokeRun(t, "cold-allocate", "1", "0")
	s2 := smokeRun(t, "cold-allocate", "2", "0")
	if a, b := metricSet(s1.Metrics), metricSet(s2.Metrics); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("seed 1 metrics %v, seed 2 metrics %v", a, b)
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{{15, 90, 50}, {40, 90, 75}, {99, 90, 75}, {100, 90, 90}, {1000, 90, 90}, {1000, 99, 99}, {999, 99, 90}} {
		if _, p := tailLatency(xs[:c.n], c.pct); p != c.want {
			t.Errorf("%d samples, p%g wanted: tail percentile %g, want %g", c.n, c.pct, p, c.want)
		}
	}
	if v, _ := tailLatency(xs[:100], 90); math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %g, want 90.1", v)
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to the quartiles Python's
// statistics.quantiles(values, n=4) returns: for 1..10 they are 2.75
// and 8.25.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h hostBlock) string {
		r := result{Workload: "cold-allocate", Host: h, Metrics: map[string]metric{"latency_p50_ms": {Value: 1, Unit: "ms"}}}
		data, _ := json.Marshal(r)
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := hostInfo()
	base := write("base.jsonl", h)
	h.Commit = "other"
	sameShape := write("head.jsonl", h)
	h.NProc++
	otherShape := write("other.jsonl", h)
	if code := compareMain([]string{"--benchmark", "../BENCHMARK.json", base, sameShape}, io.Discard); code != 0 {
		t.Errorf("same machine shape, different commit: exit %d, want 0", code)
	}
	if code := compareMain([]string{"--benchmark", "../BENCHMARK.json", base, otherShape}, io.Discard); code != 3 {
		t.Errorf("different machine shape: exit %d, want 3 (refused)", code)
	}
}
