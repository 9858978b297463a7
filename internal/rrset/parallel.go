package rrset

import (
	"context"
	"sync"
	"sync/atomic"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/telemetry"
)

// GrowParallelCtx grows the collection to at least target RR sets using
// the given number of worker goroutines. workers <= 1 delegates to the
// serial GrowCtx path unchanged (same RNG draws, same result — the
// legacy behavior).
//
// For workers > 1 the growth is deterministic for a fixed (rng state,
// workers) pair, independent of goroutine scheduling:
//
//   - one base seed is drawn from rng (a single Uint64), and worker w's
//     private RNG is seeded from the (w+1)-th splitmix64 expansion of
//     that base — per-worker streams that never contend and never
//     interleave;
//   - the target is split into fixed chunks of growChunk sets, chunk j
//     statically assigned to worker j mod workers; each worker samples
//     its chunks in increasing j with its one sequential stream, so
//     chunk contents depend only on (base, w, chunk sequence);
//   - workers sample into private buffers, presized from the
//     collection's mean set size; after all workers finish, members and
//     offsets are sized once from the workers' totals and the chunks are
//     copied in chunk-index order, so Members()/Offsets() are
//     byte-identical across runs. The index is sealed after the merge.
//     No worker buffer or sampler outlives the call: resident sketches
//     keep only their sets and index.
//
// EdgesVisited and progress are accumulated through atomics while
// workers run; report (when non-nil) observes a monotone done count.
// Cancellation is checked once per chunk per worker; on ctx error the
// collection is left exactly as it was — no partial merge.
func (c *Collection) GrowParallelCtx(ctx context.Context, target int64, rng *stats.RNG, workers int, report func(done, target int64)) error {
	if workers <= 1 {
		return c.GrowCtx(ctx, target, rng, report)
	}
	start := int64(c.Len())
	need := target - start
	if need <= 0 {
		return nil
	}
	defer telemetry.StartSpan(ctx, "rrset_grow_parallel")()
	defer func() {
		telemetry.AddResource(ctx, telemetry.ResRRSetsGrown, int64(c.Len())-start)
	}()

	numChunks := int((need + growChunk - 1) / growChunk)
	if workers > numChunks {
		workers = numChunks
	}

	// Per-worker RNG seeds: one Uint64 from the caller's stream (so the
	// caller's stream advances by exactly one draw per parallel grow),
	// then worker w's stream is NewRNG(base + w)'s first output fed back
	// through NewRNG — the splitmix64 expansion inside NewRNG decorrelates
	// the consecutive raw seeds.
	base := rng.Uint64()
	seeds := make([]uint64, workers)
	for w := range seeds {
		seeds[w] = stats.NewRNG(base + uint64(w)).Uint64()
	}

	// chunkSpan records where chunk j's sets landed inside its worker's
	// private buffers; indices (not slices) stay valid across buffer
	// reallocation.
	type chunkSpan struct {
		memStart, memEnd   int
		sizeStart, sizeEnd int
	}
	type workerOut struct {
		buf   []graph.NodeID
		sizes []int32
	}
	chunks := make([]chunkSpan, numChunks)
	outs := make([]workerOut, workers)
	mean := c.meanSet
	if mean == 0 {
		mean = 4
	}

	var done atomic.Int64
	var reportMu sync.Mutex
	lastReported := start
	progress := func(sets int64) {
		if report == nil {
			return
		}
		d := start + done.Add(sets)
		reportMu.Lock()
		if d > lastReported {
			lastReported = d
			report(d, target)
		}
		reportMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := stats.NewRNG(seeds[w])
			smp := NewSampler(c.g)
			smp.Cascade = c.sampler.Cascade
			smp.NodeCoin = c.sampler.NodeCoin
			sets := need/int64(workers) + growChunk
			sizes := make([]int32, 0, sets)
			buf := make([]graph.NodeID, 0, int(float64(sets)*mean*1.125))
			var edgesBase int64
			for j := w; j < numChunks; j += workers {
				if ctx.Err() != nil {
					break
				}
				lo := int64(j) * growChunk
				hi := lo + growChunk
				if hi > need {
					hi = need
				}
				sp := &chunks[j]
				sp.memStart, sp.sizeStart = len(buf), len(sizes)
				for s := lo; s < hi; s++ {
					before := len(buf)
					buf = smp.Sample(wrng, buf)
					sizes = append(sizes, int32(len(buf)-before))
				}
				sp.memEnd, sp.sizeEnd = len(buf), len(sizes)
				atomic.AddInt64(&c.parEdges, smp.EdgesVisited-edgesBase)
				edgesBase = smp.EdgesVisited
				progress(hi - lo)
			}
			outs[w] = workerOut{buf: buf, sizes: sizes}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Merge in chunk-index order: the single mutating pass, after every
	// worker has stopped touching its buffers.
	var addMembers, addSets int
	for _, o := range outs {
		addMembers += len(o.buf)
		addSets += len(o.sizes)
	}
	c.members = reserve(c.members, addMembers)
	c.offsets = reserve(c.offsets, addSets)
	for j := 0; j < numChunks; j++ {
		o := &outs[j%workers]
		sp := chunks[j]
		c.members = append(c.members, o.buf[sp.memStart:sp.memEnd]...)
		end := c.offsets[len(c.offsets)-1]
		for _, sz := range o.sizes[sp.sizeStart:sp.sizeEnd] {
			end += int64(sz)
			c.offsets = append(c.offsets, end)
		}
	}
	c.seal()
	if report != nil {
		reportMu.Lock()
		if int64(c.Len()) > lastReported {
			lastReported = int64(c.Len())
			report(int64(c.Len()), target)
		}
		reportMu.Unlock()
	}
	return nil
}

// reserve returns s with room for n more elements, reallocating to
// exactly len(s)+n when it must. Unlike slices.Grow it adds no growth
// slack, which a resident sketch would otherwise carry for its lifetime.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// Clone returns a copy of the collection sharing nothing mutable with
// the original: members and offsets are copied, the sealed index arrays
// are shared read-only (a seal on either side writes new arrays), and
// the clone gets a fresh sampler carrying the original's cascade, node
// coin, and cumulative width statistic. The original may keep serving
// concurrent readers (the sketch-cache contract) while the clone is
// grown further — the ExtendSketch seam.
func (c *Collection) Clone() *Collection {
	nc := &Collection{
		g:        c.g,
		members:  append([]graph.NodeID(nil), c.members...),
		offsets:  append([]int64(nil), c.offsets...),
		coverOff: c.coverOff,
		coverIDs: c.coverIDs,
		sealed:   c.sealed,
		meanSet:  c.meanSet,
		sampler:  NewSampler(c.g),
	}
	nc.sampler.Cascade = c.sampler.Cascade
	nc.sampler.NodeCoin = c.sampler.NodeCoin
	nc.sampler.EdgesVisited = c.EdgesVisited()
	return nc
}
