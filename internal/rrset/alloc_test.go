package rrset

import (
	"context"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

// TestSampleSteadyStateAllocatesNothing: once the destination and the
// BFS queue have grown to a set's size, drawing more sets allocates
// nothing — the queue keeps its capacity across samples.
func TestSampleSteadyStateAllocatesNothing(t *testing.T) {
	g := growTestGraph()
	for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
		s := NewSampler(g)
		s.Cascade = cascade
		rng := stats.NewRNG(3)
		buf := make([]graph.NodeID, 0, g.N())
		for i := 0; i < 2000; i++ {
			buf = s.Sample(rng, buf[:0])
		}
		if allocs := testing.AllocsPerRun(2000, func() { buf = s.Sample(rng, buf[:0]) }); allocs != 0 {
			t.Errorf("cascade %v: Sample allocates %v objects per set", cascade, allocs)
		}
	}
}

// TestRestoreAllocationsIndependentOfSetCount: Restore seals the index in
// one counting sort, so its allocation count does not grow with the
// number of sets.
func TestRestoreAllocationsIndependentOfSetCount(t *testing.T) {
	g := growTestGraph()
	restoreAllocs := func(sets int64) float64 {
		c := NewCollection(g)
		c.Grow(sets, stats.NewRNG(5))
		return testing.AllocsPerRun(20, func() {
			if _, err := Restore(g, c.Members(), c.Offsets()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := restoreAllocs(200), restoreAllocs(8000)
	if small != large || large > 8 {
		t.Fatalf("Restore allocates %v objects for 200 sets and %v for 8000, want the same small constant", small, large)
	}
}

// TestGrowParallelRoundAllocatesPerWorker: a warm parallel round that
// appends thousands of sets allocates O(workers) objects — per-worker
// buffers and samplers, one resize of the set storage, one seal — and
// nothing per set.
func TestGrowParallelRoundAllocatesPerWorker(t *testing.T) {
	g := growTestGraph()
	const workers = 3
	c := NewCollection(g)
	target := int64(3000)
	if err := c.GrowParallelCtx(context.Background(), target, stats.NewRNG(9), workers, nil); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(10)
	allocs := testing.AllocsPerRun(5, func() {
		target += 6000
		if err := c.GrowParallelCtx(context.Background(), target, rng, workers, nil); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(10*workers + 16); allocs > limit {
		t.Fatalf("a 6000-set parallel round allocates %v objects, want <= %v", allocs, limit)
	}
}
