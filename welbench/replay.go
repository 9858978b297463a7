package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/service"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
	"uicwelfare/internal/uic"
)

// cost is one replayed call's median time and mean heap allocation.
type cost struct {
	d     time.Duration
	bytes float64
}

func (c cost) ms() float64 { return ms(c.d) }

// measure calls fn at least minReps times and until budget is spent (at
// most maxReps), returning the median time and the mean bytes
// allocated per call. setup runs before each call, untimed.
func measure(setup, fn func()) cost {
	const (
		minReps = 3
		maxReps = 200
		budget  = 300 * time.Millisecond
	)
	var times []time.Duration
	var allocated uint64
	var ms runtime.MemStats
	spent := time.Duration(0)
	for len(times) < minReps || (spent < budget && len(times) < maxReps) {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before
		times = append(times, d)
		spent += d
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return cost{d: times[len(times)/2], bytes: float64(allocated) / float64(len(times))}
}

// replay is the layer half of the traced run: on the workload's own
// inputs it calls each layer's public function directly. A layer the
// timed phase's request stream did not exercise (per the /v1/stats
// deltas, or runs: 0 for the estimator) reads 0.
func (r *runner) replay(ctx context.Context, d counters) map[string]metric {
	m := map[string]metric{}
	for _, name := range []string{
		"core.build_sketch_ms", "core.rr_sets", "core.extend_sketch_ms",
		"rrset.grow_ms", "rrset.ns_per_set", "rrset.members_per_set", "rrset.alloc_bytes_per_set", "rrset.parallel_efficiency",
		"rrset.restore_ms", "store.encode_ms", "store.decode_ms", "store.sketch_mb", "store.save_ms", "store.load_ms",
		"uic.estimate_ms", "uic.runs_per_s",
	} {
		m[name] = newMetric(name, 0)
	}
	set := func(name string, v float64) { m[name] = newMetric(name, v) }
	record := func(name string, c cost) cost {
		now := time.Now()
		r.rec.add(span{Req: "replay", Name: name, Start: now.Add(-c.d), End: now})
		return c
	}

	g := r.pool[0].g
	budgets, runs := r.w.budgets, r.w.runs
	algo := r.w.algo
	if sh := r.w.sweep; sh != nil {
		budgets, runs, algo = sh.budgets, sh.runs, core.AlgoBundleGRD
	}
	planner, _, err := core.Lookup(algo)
	if err != nil {
		r.fail.add("replay: %v", err)
		return m
	}
	sp := planner.(core.SketchPlanner)
	model, _ := service.BuildModel("config1", 0, len(budgets[0]), 1)
	prob, err := core.NewProblem(g, model, budgets[0])
	if err != nil {
		r.fail.add("replay: %v", err)
		return m
	}
	workers := hostInfo().SketchWorkers
	opts := core.Options{SketchWorkers: workers}
	// Selection, restore and the codec need a built sketch and collection
	// even where building is not a measured layer; those are built once.
	var sk any
	build := func() { sk, err = sp.BuildSketch(ctx, prob, opts, stats.NewRNG(r.seed)) }
	coldBuilds := d.Misses - d.DiskHits - d.Extends
	if coldBuilds > 0 {
		set("core.build_sketch_ms", record("core.build_sketch", measure(nil, build)).ms())
	} else {
		build()
	}
	if err != nil {
		r.fail.add("replay build: %v", err)
		return m
	}
	theta := int64(sk.(interface{ NumRRSets() int }).NumRRSets())
	if coldBuilds > 0 {
		set("core.rr_sets", float64(theta))
	}
	plan := record("core.plan", measure(nil, func() { _, err = sp.PlanFromSketch(prob, sk) }))
	set("core.plan_ms", plan.ms())

	// The rrset layer at the same θ: a fresh collection grown by the
	// service's sketch-worker count, then selection and restore on it.
	col := rrset.NewCollection(g)
	grow := func(w int) func() {
		return func() { err = col.GrowParallelCtx(ctx, theta, stats.NewRNG(r.seed), w, nil) }
	}
	fresh := func() { col = rrset.NewCollection(g) }
	if coldBuilds == 0 {
		grow(workers)()
	} else {
		grow1 := measure(fresh, grow(1))
		growW := measure(fresh, grow(workers))
		set("rrset.grow_ms", record("rrset.grow", growW).ms())
		set("rrset.ns_per_set", float64(growW.d.Nanoseconds())/float64(theta))
		set("rrset.members_per_set", float64(col.TotalSize())/float64(col.Len()))
		set("rrset.alloc_bytes_per_set", growW.bytes/float64(theta))
		set("rrset.parallel_efficiency", float64(grow1.d)/(float64(workers)*float64(growW.d)))
	}
	kmax := 0
	for _, b := range budgets {
		for _, x := range b {
			kmax = max(kmax, x)
		}
	}
	set("rrset.select_ms", record("rrset.select", measure(nil, func() { col.NodeSelection(kmax) })).ms())

	if d.DiskHits > 0 {
		set("rrset.restore_ms", record("rrset.restore", measure(nil, func() {
			_, err = rrset.Restore(g, col.Members(), col.Offsets())
		})).ms())
	}

	var buf bytes.Buffer
	encode := measure(func() { buf.Reset() }, func() { err = store.EncodeSketch(&buf, sk) })
	encoded := buf.Bytes()
	if d.Spills > 0 || d.DiskHits > 0 {
		set("store.sketch_mb", float64(len(encoded))/(1<<20))
	}
	st, serr := store.Open(filepath.Join(r.root, "replay-store"), 0)
	if serr != nil {
		r.fail.add("replay store: %v", serr)
		return m
	}
	const gid, key = "greplay", "greplay|replay"
	if d.Spills > 0 {
		set("store.encode_ms", record("store.encode", encode).ms())
		set("store.save_ms", record("store.save", measure(nil, func() { err = st.SaveSketch(gid, key, sk) })).ms())
	}
	if d.DiskHits > 0 {
		set("store.decode_ms", record("store.decode", measure(nil, func() {
			_, err = store.DecodeSketch(bytes.NewReader(encoded), g)
		})).ms())
		if err = st.SaveSketch(gid, key, sk); err == nil {
			set("store.load_ms", record("store.load", measure(nil, func() {
				if st.LoadSketch(gid, key, g, 0) == nil {
					err = fmt.Errorf("saved sketch did not load")
				}
			})).ms())
		}
	}
	if err != nil {
		r.fail.add("replay: %v", err)
	}

	if d.Extends > 0 {
		set("core.extend_sketch_ms", record("core.extend_sketch", r.replayExtend(ctx, sp, g, budgets, opts)).ms())
	}
	if runs > 0 {
		distinct := r.returned.all()
		if len(distinct) == 0 {
			r.fail.add("replay estimate: no allocation returned")
			return m
		}
		alloc := service.AllocationDTO{Seeds: distinct[0].a.seeds}.Allocation()
		est := record("uic.estimate", measure(nil, func() {
			_, err = uic.EstimateWelfareParallelCascadeCtx(ctx, g, model, graph.CascadeIC, alloc, stats.NewRNG(r.seed), runs, 0, nil)
		}))
		if err != nil {
			r.fail.add("replay estimate: %v", err)
		}
		set("uic.estimate_ms", est.ms())
		set("uic.runs_per_s", float64(runs)/est.d.Seconds())
	}
	return m
}

// replayExtend extends a sketch along the sweep's budget axis, one
// ExtendSketch per step, and returns the per-step cost.
func (r *runner) replayExtend(ctx context.Context, sp core.SketchPlanner, g *graph.Graph, budgets [][]int, opts core.Options) cost {
	ep, ok := sp.(core.ExtendSketchPlanner)
	if !ok || len(budgets) < 2 {
		return cost{}
	}
	var steps []cost
	prev := []int(nil)
	var base any
	for _, b := range budgets {
		m, _ := service.BuildModel("config1", 0, len(b), 1)
		p, err := core.NewProblem(g, m, b)
		if err != nil {
			r.fail.add("replay extend: %v", err)
			return cost{}
		}
		target := ep.SketchBudgets(p)
		if base == nil {
			if base, err = ep.BuildSketchForBudgets(ctx, p, target, opts, stats.NewRNG(r.seed)); err != nil {
				r.fail.add("replay extend: %v", err)
				return cost{}
			}
			prev = target
			continue
		}
		merged := ep.MergeBudgets(prev, target)
		var next any
		steps = append(steps, measure(nil, func() {
			next, err = ep.ExtendSketch(ctx, p, base, prev, merged, opts, stats.NewRNG(r.seed))
		}))
		if err != nil {
			r.fail.add("replay extend: %v", err)
			return cost{}
		}
		base, prev = next, merged
	}
	var total time.Duration
	for _, c := range steps {
		total += c.d
	}
	return cost{d: total / time.Duration(len(steps))}
}
