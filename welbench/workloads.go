package main

import (
	"fmt"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/core"
	"uicwelfare/internal/expr"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/store"
)

// workload is one closed-loop traffic mix. Every field is an input
// property the system's behaviour depends on; README.md gives the reason
// for each choice.
type workload struct {
	name string
	why  string
	// clients is the closed loop's caller count (capped at nproc).
	clients int
	// tailPct is the percentile latency_tail_ms reports, fixed per
	// workload so it stays the same percentile from run to run: the
	// highest of p75/p90 with at least ten samples beyond it at this
	// workload's throughput on a 2-CPU host. Higher percentiles are left
	// out: on a shared 2-CPU host warm-routed's p99 moved between 1.0
	// and 3.9 ms across runs of one seed, with the same seed's p90
	// within 3%.
	tailPct float64
	// routed puts a cluster router in front of two backends.
	routed bool
	// dataDir gives each backend a persistence directory.
	dataDir bool
	// cache bounds the in-memory sketch cache in entries (0 keeps the
	// daemon default).
	cache int
	// The graph pool: graphs stand-ins of one network at one scale,
	// each from its own generator seed.
	network string
	scale   float64
	graphs  int
	// Allocate requests cycle over graphs × budgets.
	budgets [][]int
	algo    string
	runs    int
	// prewarm builds every (graph, budgets) sketch during set-up.
	prewarm bool
	// restart builds and spills every sketch during set-up, then
	// restarts the service over the same data directory.
	restart bool
	// sweep, when set, makes each request one POST /v1/sweeps over the
	// pool's single graph instead of an allocate.
	sweep *sweepShape
	// deterministic checks that every key's allocation is byte-identical
	// across its cold rebuilds and across a second, fresh service.
	deterministic bool
	// expect checks the /v1/stats deltas of the timed phase against what
	// the client saw (allocs completed allocations).
	expect func(d counters, allocs int64) error
	// rescoreRuns is the Monte-Carlo run count of the benchmark's own
	// welfare re-scoring.
	rescoreRuns int
}

// sweepShape is the Fig. 4 grid one paper-sweep request sends.
type sweepShape struct {
	configs []string
	algos   []string
	budgets [][]int
	runs    int
}

// sweepCells is the cell count of one of w's sweeps (every pool graph
// is a grid axis value).
func (w *workload) sweepCells() int {
	return w.graphs * len(w.sweep.configs) * len(w.sweep.algos) * len(w.sweep.budgets)
}

var workloads = []*workload{
	{
		name:          "cold-allocate",
		why:           "every allocate misses the bounded cache and rebuilds its sketch, so rrset growth, selection and prima dominate",
		clients:       1,
		tailPct:       90,
		cache:         3,
		network:       "flixster",
		scale:         1.0,
		graphs:        6,
		budgets:       [][]int{{50, 30}},
		algo:          core.AlgoBundleGRD,
		deterministic: true,
		rescoreRuns:   1000,
		expect: func(d counters, allocs int64) error {
			if d.Misses != allocs || d.Hits != 0 {
				return fmt.Errorf("sketch cache hits %d misses %d over %d allocations: want every allocation a miss", d.Hits, d.Misses, allocs)
			}
			return nil
		},
	},
	{
		name:        "warm-routed",
		why:         "every sketch is resident, so the router hop, HTTP, jobs, cache lookup, selection and SSE dominate; no sketch work",
		clients:     2,
		tailPct:     90,
		routed:      true,
		network:     "flixster",
		scale:       0.05,
		graphs:      6,
		budgets:     [][]int{{5, 5}, {10, 5}},
		algo:        core.AlgoBundleGRD,
		prewarm:     true,
		rescoreRuns: 1000,
		expect: func(d counters, allocs int64) error {
			if d.Hits != allocs || d.Misses != 0 || d.Batched != 0 {
				return fmt.Errorf("sketch cache hits %d misses %d builds %d over %d allocations: want every allocation a hit", d.Hits, d.Misses, d.Batched, allocs)
			}
			return nil
		},
	},
	{
		name:    "paper-sweep",
		why:     "Fig. 4 grids mix cold builds, extends, spills and cache hits with batching and Monte-Carlo welfare estimates",
		clients: 1,
		tailPct: 75,
		dataDir: true,
		network: "douban-book",
		scale:   0.05,
		graphs:  2,
		sweep: &sweepShape{
			configs: []string{"config1", "config3"},
			algos:   []string{core.AlgoBundleGRD, core.AlgoItemDisjoint, core.AlgoBundleDisjoint},
			budgets: [][]int{{5, 5}, {10, 10}, {20, 20}},
			runs:    100,
		},
		rescoreRuns: 1000,
		expect: func(d counters, allocs int64) error {
			if d.CellsDone != allocs || d.CellsFailed != 0 {
				return fmt.Errorf("sweep cells done %d failed %d, client saw %d done", d.CellsDone, d.CellsFailed, allocs)
			}
			return nil
		},
	},
	{
		name:        "disk-reload",
		why:         "every allocate misses memory and loads its spilled sketch, so the store codec and rrset.Restore dominate",
		clients:     1,
		tailPct:     90,
		dataDir:     true,
		cache:       3,
		network:     "flixster",
		scale:       1.0,
		graphs:      6,
		budgets:     [][]int{{50, 30}},
		algo:        core.AlgoBundleGRD,
		restart:     true,
		rescoreRuns: 1000,
		expect: func(d counters, allocs int64) error {
			if d.DiskHits != allocs || d.Misses != allocs || d.DiskLoadErrors != 0 {
				return fmt.Errorf("disk hits %d memory misses %d load errors %d over %d allocations: want every allocation loaded from disk", d.DiskHits, d.Misses, d.DiskLoadErrors, allocs)
			}
			return nil
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// smoke returns a copy of w shrunk to finish in a few seconds; the
// self-tests run it.
func (w *workload) smoke() *workload {
	s := *w
	s.scale = min(w.scale, 0.05)
	s.graphs = min(w.graphs, 2)
	if w.cache > 0 {
		s.cache = 1 // still below the pool
	}
	s.rescoreRuns = 100
	if w.sweep != nil {
		sw := *w.sweep
		sw.budgets = sw.budgets[:2]
		sw.runs = 50
		s.sweep = &sw
	}
	return &s
}

// graphInput is one pool graph: the generator parameters the service
// receives and a client-side copy for output checks and re-scoring.
type graphInput struct {
	network string
	scale   float64
	seed    uint64
	id      string
	g       *graph.Graph
}

// allocKey is one allocate request shape.
type allocKey struct {
	graph   int
	budgets []int
	seed    uint64
}

// inputs derives the workload's graph pool and request keys from the
// workload seed. For a routed workload graphs are drawn until each of
// the two backends owns half the pool under the router's HRW placement,
// and the pool alternates between the owners, so every seed spreads
// consecutive requests across both backends the same way. Keys cycle
// budgets-major: consecutive requests go to different graphs.
func (w *workload) inputs(seed uint64) ([]*graphInput, []allocKey, error) {
	var pool []*graphInput
	byOwner := map[string][]*graphInput{}
	for j := uint64(0); len(pool) < w.graphs; j++ {
		if j > 64*uint64(w.graphs) {
			return nil, nil, fmt.Errorf("no seed spreads %d graphs across both backends", w.graphs)
		}
		gs := mix(seed, j) | 1
		g, err := expr.GenerateByName(w.network, w.scale, gs)
		if err != nil {
			return nil, nil, err
		}
		in := &graphInput{network: w.network, scale: w.scale, seed: gs, id: store.GraphID(g), g: g}
		if w.routed {
			owner := cluster.Rank([]string{"b0", "b1"}, in.id)[0]
			if len(byOwner[owner]) >= w.graphs/2 {
				continue
			}
			byOwner[owner] = append(byOwner[owner], in)
		}
		pool = append(pool, in)
	}
	if w.routed {
		for i := range pool {
			pool[i] = byOwner[fmt.Sprintf("b%d", i%2)][i/2]
		}
	}
	var keys []allocKey
	if w.sweep == nil {
		for _, b := range w.budgets {
			for gi := range pool {
				keys = append(keys, allocKey{graph: gi, budgets: b, seed: pool[gi].seed})
			}
		}
	}
	return pool, keys, nil
}

// mix is splitmix64 over (seed, i): independent-looking streams for
// every derived input.
func mix(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
