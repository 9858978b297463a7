package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readResults collects the detail lines (the full result records) from
// a file of benchmark output; summary lines and anything else are
// skipped.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" && r.Host.GoVersion != "" {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// machineShape is a host block without the commit: two results are
// comparable only when their machine shapes are equal.
func machineShape(h hostBlock) hostBlock {
	h.Commit = ""
	return h
}

// compareMain compares two sets of runs (base and head, each a file of
// benchmark output lines) metric by metric. It refuses to compare runs
// whose host blocks differ in anything but the commit, and exits 1 when
// a head median is worse than the base median by more than the metric's
// bound in BENCHMARK.json.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stdout)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stdout, "usage: welbench compare [--benchmark BENCHMARK.json] <base.jsonl> <head.jsonl>")
		return 2
	}
	bench, err := readBenchmarkFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stdout, "compare:", err)
		return 2
	}
	var sides [2][]result
	for i := range sides {
		if sides[i], err = readResults(fs.Arg(i)); err != nil || len(sides[i]) == 0 {
			fmt.Fprintf(stdout, "compare: %s: no results (%v)\n", fs.Arg(i), err)
			return 2
		}
	}
	shape := machineShape(sides[0][0].Host)
	for i, rs := range sides {
		for _, r := range rs {
			if s := machineShape(r.Host); !reflect.DeepEqual(s, shape) {
				fmt.Fprintf(stdout, "compare: refusing: host blocks differ (%s has %+v, want %+v)\n", fs.Arg(i), s, shape)
				return 3
			}
		}
	}
	worse := 0
	fmt.Fprintf(stdout, "%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			var vals [2][]float64
			for i, rs := range sides {
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; ok && r.Workload == w.Name && !r.Trace {
						vals[i] = append(vals[i], v.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			b, h := median(vals[0]), median(vals[1])
			change := (h - b) / b
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse++
			case spread(vals[0]) > m.Bound:
				verdict = "unresolved (base spread over bound)"
			}
			fmt.Fprintf(stdout, "%-14s %-18s %12.4g %12.4g %+7.1f%% %6.2f  %s\n", w.Name, m.Name, b, h, 100*change, m.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// spread is the interquartile range as a share of the median, with
// quartiles as Python's statistics.quantiles(values, n=4) gives them.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { // the "exclusive" method
		pos := p * float64(len(s)+1)
		j := min(max(int(math.Floor(pos)), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(0.75) - q(0.25)) / median(s)
}
