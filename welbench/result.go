package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's full record: the detail line printed before the
// summary line, and what `welbench compare` reads back.
type result struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Host     hostBlock `json:"host"`
	Correct  bool      `json:"correct"`
	// Attempted counts requests (an allocate, or a whole sweep); Failed
	// counts failed requests plus failed output checks.
	Attempted   int `json:"attempted"`
	Failed      int `json:"failed"`
	Allocations int `json:"allocations"`
	// The tail latency is the TailPercentile-th percentile of Samples
	// requests, the highest with TailBeyond samples beyond it.
	Samples        int               `json:"latency_samples,omitempty"`
	TailPercentile float64           `json:"tail_percentile,omitempty"`
	TailBeyond     int               `json:"tail_beyond,omitempty"`
	Metrics        map[string]metric `json:"metrics"`
	Failures       []string          `json:"failures,omitempty"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary() summaryLine {
	return summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// hostBlock is the machine shape a result was measured on. Results are
// comparable only between equal host blocks (the commit aside).
type hostBlock struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	SketchWorkers int    `json:"sketch_workers"`
	Workers       int    `json:"workers"`
	Commit        string `json:"commit"`
}

func hostInfo() hostBlock {
	opts := daemonOptions()
	sketchWorkers := opts.SketchWorkers
	if sketchWorkers <= 0 {
		sketchWorkers = runtime.GOMAXPROCS(0) // the service's own resolution of 0
	}
	return hostBlock{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		SketchWorkers: sketchWorkers,
		Workers:       opts.Workers,
		Commit:        commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from or, when the
// build carries none (a checkout without git metadata), a hash of the
// Go sources and module files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the source
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "welbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
