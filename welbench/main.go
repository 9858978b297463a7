// Command welbench is the repository's end-to-end benchmark. It starts
// the welmaxd service (and, for one workload, the cluster router) in its
// own process on loopback listeners, drives one named workload with a
// closed-loop client for a fixed time, checks every output, and prints
// one JSON result line. README.md documents the workloads and metrics.
//
// Usage:
//
//	welbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	welbench compare <base.jsonl> <head.jsonl>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("welbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 replays the workload with spans and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "shrink the workload's inputs to a few-second smoke configuration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "welbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "welbench: --trace must be 0 or 1")
		return 2
	}
	if *smoke {
		w = w.smoke()
	}
	// Every file the run writes — data directories, the router's catalog
	// spill, the trace dump — stays under the checkout.
	root, err := filepath.Abs(filepath.Join(".bench_build", "welbench", w.name+"-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "welbench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	os.Setenv("TMPDIR", root)
	log.SetOutput(stderr)

	r := &runner{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke, root: root, log: stderr}
	res, err := r.run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "welbench:", err)
		return 1
	}
	if r.trace {
		if path, err := r.rec.dump(filepath.Join(".bench_build", "traces"), w.name, *seed); err == nil {
			fmt.Fprintln(stderr, "welbench: spans written to", path)
		} else {
			fmt.Fprintln(stderr, "welbench: writing spans:", err)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "welbench: check failed:", f)
	}
	// JSON has no NaN or infinity. They arise when requests failed (a
	// failed request's latency is +Inf), which already fails the run, or
	// when a ratio lacks a sample (trace.overhead of a one-request run).
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	detail, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(detail))
	summary, _ := json.Marshal(res.summary())
	fmt.Fprintln(stdout, string(summary))
	if !res.Correct {
		return 1
	}
	return 0
}
