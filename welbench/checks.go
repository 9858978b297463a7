package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/service"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
)

// checkAllocation verifies one returned allocation: one seed list per
// budget, each within its budget, every id a node of the graph, and no
// node twice within an item.
func checkAllocation(a allocResult, n int) error {
	if len(a.seeds) != len(a.budgets) {
		return fmt.Errorf("%d seed lists for %d budgets", len(a.seeds), len(a.budgets))
	}
	for i, seeds := range a.seeds {
		if len(seeds) > a.budgets[i] {
			return fmt.Errorf("item %d: %d seeds over budget %d", i, len(seeds), a.budgets[i])
		}
		seen := make(map[int64]bool, len(seeds))
		for _, v := range seeds {
			if v < 0 || v >= int64(n) {
				return fmt.Errorf("item %d: seed %d outside [0,%d)", i, v, n)
			}
			if seen[v] {
				return fmt.Errorf("item %d: seed %d twice", i, v)
			}
			seen[v] = true
		}
	}
	return nil
}

func sameSeeds(a, b [][]int64) bool {
	return slices.EqualFunc(a, b, func(x, y []int64) bool { return slices.Equal(x, y) })
}

// returned tallies the distinct allocations the timed phase returned,
// per request key, so a run keeps no per-request allocation data.
type returned struct {
	mu    sync.Mutex
	byKey map[int][]*scored
}

// scored is one distinct returned allocation, how often it was
// returned, and its re-scored welfare.
type scored struct {
	a      allocResult
	count  int
	mean   float64
	stderr float64
}

func (t *returned) add(a allocResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byKey == nil {
		t.byKey = map[int][]*scored{}
	}
	for _, s := range t.byKey[a.key] {
		if sameSeeds(s.a.seeds, a.seeds) {
			s.count++
			return
		}
	}
	t.byKey[a.key] = append(t.byKey[a.key], &scored{a: a, count: 1})
}

// all lists the distinct allocations in key order.
func (t *returned) all() []*scored {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]int, 0, len(t.byKey))
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var out []*scored
	for _, k := range keys {
		out = append(out, t.byKey[k]...)
	}
	return out
}

// checkDeterminism verifies the determinism contract for cold builds:
// for a fixed workload seed every key's allocation is byte-identical
// across all of its rebuilds in the timed phase, and identical to the
// allocation a second, freshly started service returns for it.
func (r *runner) checkDeterminism() {
	first := map[int][][]int64{}
	for _, s := range r.returned.all() {
		if _, dup := first[s.a.key]; dup {
			r.fail.add("determinism: key %d returned two different allocations in one run", s.a.key)
			return
		}
		first[s.a.key] = s.a.seeds
	}
	fresh, err := startSingle(r.w.options(), noWrap)
	if err != nil {
		r.fail.add("determinism: second service: %v", err)
		return
	}
	defer fresh.stop()
	c := newClient(fresh.url)
	defer c.close()
	for i := range r.pool {
		if err := r.register(c, i, ""); err != nil {
			r.fail.add("determinism: second service: %v", err)
			return
		}
	}
	for key, seeds := range first {
		var o outcome
		r.allocateOnce(c, key, &o)
		if o.err != nil {
			r.fail.add("determinism: second service key %d: %v", key, o.err)
			continue
		}
		if !sameSeeds(seeds, o.results[0].seeds) {
			r.fail.add("determinism: key %d allocation differs between two services with the same seed", key)
		}
	}
}

// rescore estimates, with the benchmark's own uic call and seed, the
// expected welfare of every distinct allocation the timed phase
// returned, and returns the mean over all returned allocations. On a
// sweep workload it also checks the paper's Fig. 4 ordering.
func (r *runner) rescore(ctx context.Context) (float64, error) {
	distinct := r.returned.all()
	if len(distinct) == 0 {
		return math.NaN(), nil
	}
	total, n := 0.0, 0
	for i, s := range distinct {
		model, err := service.BuildModel(s.a.config, 0, len(s.a.budgets), 1)
		if err != nil {
			return 0, err
		}
		alloc := service.AllocationDTO{Seeds: s.a.seeds}.Allocation()
		rng := stats.NewRNG(mix(r.seed, 1<<32+uint64(i)))
		est, err := uic.EstimateWelfareParallelCascadeCtx(ctx, r.pool[s.a.graph].g, model, graph.CascadeIC, alloc, rng, r.w.rescoreRuns, runtime.GOMAXPROCS(0), nil)
		if err != nil {
			return 0, err
		}
		s.mean, s.stderr = est.Mean, est.StdErr
		total += est.Mean * float64(s.count)
		n += s.count
	}
	if r.w.sweep != nil {
		r.checkWelfareOrder(distinct)
	}
	return total / float64(n), nil
}

// welfareSigmas is the Monte-Carlo error the Fig. 4 ordering check
// allows: this many standard errors of the difference of two re-scored
// estimates.
const welfareSigmas = 3

// checkWelfareOrder checks the paper's Fig. 4 ordering on every
// (graph, config, budgets) cell: bundleGRD's re-scored welfare may not
// fall below item-disj's by more than the Monte-Carlo error.
func (r *runner) checkWelfareOrder(distinct []*scored) {
	type cell struct{ sum, varSum, n float64 }
	cells := map[string]map[string]*cell{}
	for _, s := range distinct {
		ck := fmt.Sprintf("graph %d %s %v", s.a.graph, s.a.config, s.a.budgets)
		if cells[ck] == nil {
			cells[ck] = map[string]*cell{}
		}
		c := cells[ck][s.a.algo]
		if c == nil {
			c = &cell{}
			cells[ck][s.a.algo] = c
		}
		c.sum += s.mean
		c.varSum += s.stderr * s.stderr
		c.n++
	}
	for ck, algos := range cells {
		b, i := algos[core.AlgoBundleGRD], algos[core.AlgoItemDisjoint]
		if b == nil || i == nil {
			continue
		}
		bm, im := b.sum/b.n, i.sum/i.n
		se := math.Sqrt(b.varSum/(b.n*b.n) + i.varSum/(i.n*i.n))
		if bm < im-welfareSigmas*se {
			r.fail.add("welfare order: cell %s bundleGRD %.1f below item-disj %.1f by more than %d×%.1f", ck, bm, im, welfareSigmas, se)
		}
	}
}
