package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uicwelfare/internal/service"
	"uicwelfare/internal/sweep"
)

// A run sets the system up several times; setup_s is the median and the
// last set-up serves the timed phase. Cheap set-ups repeat more often,
// so their median is as steady as an expensive one's.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 3 * time.Second
)

// runner is one benchmark run of one workload.
type runner struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool // one set-up instead of several
	root    string
	log     io.Writer

	pool []*graphInput
	keys []allocKey
	sys  *system
	rec  *recorder // spans; nil unless tracing
	fail failures
	// returned holds the distinct allocations of the timed phase.
	returned returned
}

// outcome is one closed-loop request as the client saw it.
type outcome struct {
	start, end time.Time // request sent → terminal frame arrived
	err        error
	allocs     int // allocations the request completed
	results    []allocResult
	traced     bool
	reqID      string
	// housekeeping marks the meter when the request's own window closed;
	// work until the next request is excluded from the timed phase.
	housekeeping *meter
}

// allocResult is one returned allocation with the request that asked
// for it.
type allocResult struct {
	graph   int
	key     int // index into runner.keys, or the sweep cell index
	algo    string
	config  string
	budgets []int
	seeds   [][]int64
}

// jobView is the part of service.JobView the benchmark reads.
type jobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Created   time.Time       `json:"created"`
	Finished  time.Time       `json:"finished"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// failures collects output-check failures; each one fails the run.
type failures struct {
	mu   sync.Mutex
	list []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	f.list = append(f.list, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

func (f *failures) n() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.list)
}

func (r *runner) run(ctx context.Context) (*result, error) {
	var err error
	if r.pool, r.keys, err = r.w.inputs(r.seed); err != nil {
		return nil, err
	}
	wrap := noWrap
	if r.trace {
		r.rec = newRecorder()
		wrap = r.rec.wrap
	}

	// Set-up runs several times — at least minSetups, more while they
	// add up to under setupBudget — and each but the last is torn down.
	var setupTimes []float64
	spent := 0.0
	minRuns, budget := minSetups, setupBudget
	if r.smoke {
		minRuns, budget = 1, 0
	}
	for len(setupTimes) < maxSetups {
		t0 := time.Now()
		sys, err := r.setup(wrap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		setupTimes = append(setupTimes, d)
		spent += d
		if len(setupTimes) >= minRuns && spent >= budget.Seconds() || len(setupTimes) == maxSetups {
			r.sys = sys
			break
		}
		sys.stop()
		if r.rec != nil {
			r.rec.reset() // keep only the serving set-up's spans
		}
	}
	defer func() { r.sys.stop() }()

	before, err := r.sys.stats()
	if err != nil {
		return nil, err
	}
	ph := r.phase()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	residentHeap := float64(mem.HeapAlloc) / (1 << 20)
	after, err := r.sys.stats()
	if err != nil {
		return nil, err
	}
	delta := after.plus(before, -1)

	res := &result{Workload: r.w.name, Seed: r.seed, Trace: r.trace, Seconds: r.seconds, Host: hostInfo()}
	allocs, failedReqs := 0, 0
	var lat, tracedLat, plainLat []float64
	for _, s := range ph.samples {
		allocs += s.allocs
		if math.IsInf(s.ms, 1) {
			failedReqs++
		}
		lat = append(lat, s.ms)
		if s.traced {
			tracedLat = append(tracedLat, s.ms)
		} else {
			plainLat = append(plainLat, s.ms)
		}
	}
	if err := r.w.expect(delta, int64(allocs)); err != nil {
		r.fail.add("stats vs client: %v", err)
	}
	if delta.AdmissionRejects != 0 {
		r.fail.add("stats: %d admission rejects with admission control off", delta.AdmissionRejects)
	}
	if r.w.deterministic {
		r.checkDeterminism()
	}
	welfare, err := r.rescore(ctx)
	if err != nil {
		return nil, err
	}

	res.Attempted = len(ph.samples)
	res.Allocations = allocs
	if r.trace {
		res.Metrics = r.rec.layerMetrics(delta, len(ph.samples))
		res.Metrics["trace.overhead"] = newMetric("trace.overhead", quantile(tracedLat, 0.5)/quantile(plainLat, 0.5))
		for name, m := range r.replay(ctx, delta) {
			res.Metrics[name] = m
		}
	}
	res.Failed = failedReqs + r.fail.n()
	res.Failures = r.fail.list
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if r.trace {
		return res, nil
	}

	tail, pct := tailLatency(lat, r.w.tailPct)
	res.Samples, res.TailPercentile, res.TailBeyond = len(lat), pct, tailBeyond
	measured, ops := ph.measured, float64(max(allocs, 1))
	res.Metrics = map[string]metric{}
	for name, v := range map[string]float64{
		"setup_s":          median(setupTimes),
		"throughput_rps":   throughput(ph.samples),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_tail_ms":  tail,
		"ok_frac":          1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
		"welfare":          welfare,
		"cpu_ms_per_op":    ms(measured.cpu) / ops,
		"alloc_mb_per_op":  float64(measured.allocBytes) / (1 << 20) / ops,
		"allocs_per_op":    float64(measured.mallocs) / ops,
		"resident_heap_mb": residentHeap,
	} {
		res.Metrics[name] = newMetric(name, v)
	}
	return res, nil
}

// setup starts the system and loads the workload's inputs: graphs
// registered (and, per workload, sketches prewarmed or built, spilled
// and reloaded by a restart). On a traced run the graph registrations
// are traced.
func (r *runner) setup(wrap wrapFunc) (*system, error) {
	opts := r.w.options()
	if r.w.dataDir {
		opts.DataDir = workDir(r.root, "data")
	}
	start := func() (*system, error) {
		if r.w.routed {
			return startRouted(2, opts, workDir(r.root, "catalog"), wrap)
		}
		return startSingle(opts, wrap)
	}
	sys, err := start()
	if err != nil {
		return nil, err
	}
	c := newClient(sys.url)
	defer c.close()
	for i := range r.pool {
		traceID := ""
		if r.rec != nil {
			traceID = fmt.Sprintf("setup-g%d", i)
		}
		if err := r.register(c, i, traceID); err != nil {
			sys.stop()
			return nil, err
		}
	}
	if r.w.routed {
		if err := checkSpread(sys); err != nil {
			sys.stop()
			return nil, err
		}
	}
	switch {
	case r.w.prewarm:
		for _, k := range r.keys {
			req := service.WarmRequest{Algo: r.w.algo, Budgets: k.budgets, Seed: k.seed}
			if err := await(c, "/v1/graphs/"+r.pool[k.graph].id+"/warm", req); err != nil {
				sys.stop()
				return nil, fmt.Errorf("warm: %w", err)
			}
		}
	case r.w.restart:
		for i := range r.keys {
			if err := await(c, "/v1/allocate", r.allocateRequest(i)); err != nil {
				sys.stop()
				return nil, fmt.Errorf("prebuild: %w", err)
			}
		}
		sys.stop()
		if sys, err = start(); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		var listed struct {
			Graphs []service.GraphInfo `json:"graphs"`
		}
		if err := getJSON(c.http, sys.url+"/v1/graphs", &listed); err != nil || len(listed.Graphs) != len(r.pool) {
			sys.stop()
			return nil, fmt.Errorf("restart re-indexed %d of %d graphs (%v)", len(listed.Graphs), len(r.pool), err)
		}
	}
	return sys, nil
}

// register POSTs one pool graph and checks the service answered the
// content id of the client's own copy.
func (r *runner) register(c *client, i int, traceID string) error {
	in := r.pool[i]
	var info service.GraphInfo
	req := service.GraphRequest{Network: in.network, Scale: in.scale, Seed: in.seed}
	if err := c.post("/v1/graphs", traceID, req, &info); err != nil {
		return err
	}
	if info.ID != in.id {
		return fmt.Errorf("graph %d registered as %s, want content id %s", i, info.ID, in.id)
	}
	return nil
}

// checkSpread confirms the router placed graphs on every backend.
func checkSpread(sys *system) error {
	for _, b := range sys.backends {
		var listed struct {
			Graphs []service.GraphInfo `json:"graphs"`
		}
		if err := getJSON(http.DefaultClient, b.http.url+"/v1/graphs", &listed); err != nil {
			return err
		}
		if len(listed.Graphs) == 0 {
			return fmt.Errorf("backend %s holds no graph", b.name)
		}
	}
	return nil
}

// await POSTs a job-creating request and waits for it to end done.
func await(c *client, path string, body any) error {
	var acc struct {
		JobID string `json:"job_id"`
	}
	if err := c.post(path, "", body, &acc); err != nil {
		return err
	}
	state, _, err := c.awaitTerminal("/v1/jobs/"+acc.JobID+"/events", "")
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("job %s ended %s", acc.JobID, state)
	}
	return nil
}

func (r *runner) allocateRequest(key int) *service.AllocateRequest {
	k := r.keys[key]
	return &service.AllocateRequest{
		GraphID: r.pool[k.graph].id,
		Algo:    r.w.algo,
		Budgets: k.budgets,
		Seed:    k.seed,
		Runs:    r.w.runs,
	}
}

// meter is a reading of the process's clocks and allocation counters.
type meter struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
}

func readMeter() meter {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
	}
}

// usage is the difference of two readings.
type usage struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
}

func (m meter) since(o meter) usage {
	return usage{m.wall.Sub(o.wall), m.cpu - o.cpu, m.allocBytes - o.allocBytes, m.mallocs - o.mallocs}
}

func (u usage) minus(o usage) usage {
	return usage{u.wall - o.wall, u.cpu - o.cpu, u.allocBytes - o.allocBytes, u.mallocs - o.mallocs}
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.allocBytes += o.allocBytes
	u.mallocs += o.mallocs
}

// sample is what the phase keeps of one request: its latency (+Inf
// when it failed), whether it was traced, and the allocations it
// completed. Returned allocations go to runner.returned.
type sample struct {
	ms     float64
	traced bool
	allocs int
	done   time.Duration // completion, on the phase's measured clock
}

// throughputBlocks is how many consecutive blocks of requests the
// throughput is measured over.
const throughputBlocks = 10

// throughput is allocations completed per second of measured time: the
// median over throughputBlocks consecutive, equally sized blocks of
// requests. A burst of interference from outside the process (the host
// is shared) then moves one block, not the figure.
func throughput(samples []sample) float64 {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].done < s[j].done })
	blocks := min(throughputBlocks, len(s))
	var rates []float64
	prev := time.Duration(0)
	for b := 0; b < blocks; b++ {
		lo, hi := b*len(s)/blocks, (b+1)*len(s)/blocks
		allocs := 0
		for _, x := range s[lo:hi] {
			allocs += x.allocs
		}
		end := s[hi-1].done
		if end > prev {
			rates = append(rates, float64(allocs)/(end-prev).Seconds())
		}
		prev = end
	}
	return median(rates)
}

type phaseResult struct {
	samples  []sample
	measured usage
}

// phase runs the closed loop for the run's seconds of measured time.
// On a traced run every other request is traced, so traced and untraced
// latencies share one load and their ratio is the tracing overhead.
func (r *runner) phase() phaseResult {
	clients := max(1, min(r.w.clients, runtime.NumCPU()))
	limit := time.Duration(r.seconds * float64(time.Second))
	var (
		mu       sync.Mutex
		samples  []sample
		excluded usage
		seq      atomic.Int64
		wg       sync.WaitGroup
	)
	start := readMeter()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(r.sys.url)
			defer c.close()
			for {
				mu.Lock()
				elapsed := time.Since(start.wall) - excluded.wall
				mu.Unlock()
				if elapsed >= limit {
					return
				}
				n := seq.Add(1) - 1
				o := r.request(c, n, r.trace && n%2 == 0)
				if o.housekeeping != nil {
					r.between(c)
					hk := readMeter().since(*o.housekeeping)
					mu.Lock()
					excluded.add(hk)
					mu.Unlock()
				}
				s := sample{ms: ms(o.end.Sub(o.start)), traced: o.traced}
				if o.err != nil {
					fmt.Fprintln(r.log, "welbench: request failed:", o.err)
					s.ms = math.Inf(1)
				} else {
					s.allocs = o.allocs
					for _, a := range o.results {
						r.returned.add(a)
					}
				}
				mu.Lock()
				s.done = time.Since(start.wall) - excluded.wall
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return phaseResult{samples: samples, measured: readMeter().since(start).minus(excluded)}
}

func (r *runner) request(c *client, n int64, traced bool) outcome {
	o := outcome{traced: traced}
	if traced {
		o.reqID = fmt.Sprintf("r%d", n)
	}
	if r.w.sweep != nil {
		r.sweepOnce(c, &o)
	} else {
		r.allocateOnce(c, int(n%int64(len(r.keys))), &o)
	}
	if o.err == nil {
		for _, a := range o.results {
			if err := checkAllocation(a, r.pool[a.graph].g.N()); err != nil {
				o.err = fmt.Errorf("output check: %w", err)
				break
			}
		}
	}
	return o
}

func (r *runner) allocateOnce(c *client, key int, o *outcome) {
	req := r.allocateRequest(key)
	var acc struct {
		JobID string `json:"job_id"`
	}
	o.start = time.Now()
	o.err = c.post("/v1/allocate", o.reqID, req, &acc)
	posted := time.Now()
	o.end = posted
	if o.err != nil {
		return
	}
	state, at, err := c.awaitTerminal("/v1/jobs/"+acc.JobID+"/events", o.reqID)
	o.end = at
	if err != nil {
		o.err = err
		return
	}
	var view jobView
	if err := c.get("/v1/jobs/"+acc.JobID, &view); err != nil {
		o.err = err
		return
	}
	if state != "done" || view.State != "done" {
		o.err = fmt.Errorf("job %s ended %s/%s: %s", acc.JobID, state, view.State, view.Error)
		return
	}
	var out service.AllocateResult
	if err := json.Unmarshal(view.Result, &out); err != nil {
		o.err = fmt.Errorf("job %s result: %w", acc.JobID, err)
		return
	}
	k := r.keys[key]
	o.allocs = 1
	o.results = []allocResult{{graph: k.graph, key: key, algo: out.Algorithm, config: "config1", budgets: k.budgets, seeds: out.Allocation.Seeds}}
	if o.traced {
		r.rec.clientSpans(o.reqID, o.start, posted, at)
		r.rec.jobSpans(o.reqID, view)
		r.rec.add(span{Req: o.reqID, Name: "job.delivery", Start: view.Finished, End: at})
	}
}

func (r *runner) sweepSpec() *sweep.Spec {
	sh := r.w.sweep
	ids := make([]string, len(r.pool))
	for i, in := range r.pool {
		ids[i] = in.id
	}
	return &sweep.Spec{
		Name:     r.w.name,
		GraphIDs: ids,
		Configs:  sh.configs,
		Algos:    sh.algos,
		Budgets:  sh.budgets,
		Runs:     sh.runs,
		Seed:     r.pool[0].seed,
	}
}

func (r *runner) sweepOnce(c *client, o *outcome) {
	var acc struct {
		SweepID string `json:"sweep_id"`
		Cells   int    `json:"cells"`
	}
	o.start = time.Now()
	o.err = c.post("/v1/sweeps", o.reqID, r.sweepSpec(), &acc)
	posted := time.Now()
	o.end = posted
	if o.err == nil {
		var state string
		state, o.end, o.err = c.awaitTerminal("/v1/sweeps/"+acc.SweepID+"/events", o.reqID)
		if o.err == nil && state != "done" {
			o.err = fmt.Errorf("sweep %s ended %s", acc.SweepID, state)
		}
	}
	hk := readMeter()
	o.housekeeping = &hk
	if o.err != nil {
		return
	}
	o.err = r.collectSweep(c, acc.SweepID, acc.Cells, o, posted)
}

// collectSweep reads a finished sweep's summary, its results route and
// every cell's job, checking that all cells ended done.
func (r *runner) collectSweep(c *client, id string, cells int, o *outcome, posted time.Time) error {
	var view jobView
	if err := c.get("/v1/sweeps/"+id, &view); err != nil {
		return err
	}
	var sum sweep.Summary
	if err := json.Unmarshal(view.Result, &sum); err != nil {
		return fmt.Errorf("sweep %s summary: %w", id, err)
	}
	if want := r.w.sweepCells(); cells != want || sum.Cells != want || sum.Done != want {
		return fmt.Errorf("sweep %s: %d cells accepted, summary %d cells %d done, want %d done", id, cells, sum.Cells, sum.Done, want)
	}
	var results sweep.ResultsResponse
	if err := c.get("/v1/sweeps/"+id+"/results", &results); err != nil {
		return fmt.Errorf("results route: %w", err)
	}
	if len(results.Cells) != cells || results.ArtifactID != sum.ArtifactID {
		return fmt.Errorf("sweep %s results: %d cells, artifact %s (summary %s)", id, len(results.Cells), results.ArtifactID, sum.ArtifactID)
	}
	if o.traced {
		r.rec.clientSpans(o.reqID, o.start, posted, o.end)
		r.rec.add(span{Req: o.reqID, Name: "job.delivery", Start: view.Finished, End: o.end})
	}
	graphOf := map[string]int{}
	for i, in := range r.pool {
		graphOf[in.id] = i
	}
	for _, cell := range results.Cells {
		gi, ok := graphOf[cell.GraphID]
		if !ok {
			return fmt.Errorf("sweep %s cell %s ran on unknown graph %s", id, cell.CellID, cell.GraphID)
		}
		if cell.State != "done" {
			return fmt.Errorf("sweep %s cell %s ended %s: %s", id, cell.CellID, cell.State, cell.Error)
		}
		var cv jobView
		if err := c.get("/v1/jobs/"+cell.JobID, &cv); err != nil {
			return fmt.Errorf("cell %s job: %w", cell.CellID, err)
		}
		var out service.AllocateResult
		if err := json.Unmarshal(cv.Result, &out); err != nil || cv.State != "done" {
			return fmt.Errorf("cell %s job %s: state %s (%v)", cell.CellID, cell.JobID, cv.State, err)
		}
		o.results = append(o.results, allocResult{
			graph: gi, key: cell.Index, algo: cell.Algo, config: cell.Config,
			budgets: cell.Budgets, seeds: out.Allocation.Seeds,
		})
		if o.traced {
			r.rec.jobSpans(o.reqID, cv)
		}
	}
	o.allocs = len(results.Cells)
	return nil
}

// between deletes and re-registers the sweep's graphs, outside the timed
// window, so every sweep starts without resident or spilled sketches.
func (r *runner) between(c *client) {
	for i, in := range r.pool {
		if err := c.delete("/v1/graphs/" + in.id); err != nil {
			r.fail.add("delete graph between sweeps: %v", err)
			return
		}
		if err := r.register(c, i, ""); err != nil {
			r.fail.add("re-register graph between sweeps: %v", err)
			return
		}
	}
}

// quantile is the q-quantile of xs by linear interpolation (NaN when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tailLadder are the percentiles a tail can be reported at.
var tailLadder = []float64{50, 75, 90, 99}

// tailLatency returns the want-th percentile of xs when at least
// tailBeyond samples lie beyond it, and otherwise the highest ladder
// percentile below it that has them; it also returns the percentile
// used.
func tailLatency(xs []float64, want float64) (value, percentile float64) {
	percentile = tailLadder[0]
	for _, p := range tailLadder {
		if p <= want && float64(len(xs))*(100-p) >= 100*tailBeyond-1e-6 {
			percentile = p
		}
	}
	return quantile(xs, percentile/100), percentile
}
