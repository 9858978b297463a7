package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of one request, recorded by the benchmark
// around a call into a layer. Spans of one request share Req; Parent
// names the enclosing span of the same request.
type span struct {
	Req    string    `json:"req"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// parents is the fixed span tree: a tier's handler span sits under the
// tier in front of it, jobs and delivery under the whole request.
var parents = map[string][]string{
	"client.post":      {"client.request"},
	"client.events":    {"client.request"},
	"router.submit":    {"client.post"},
	"router.events":    {"client.events"},
	"backend.submit":   {"router.submit", "client.post"},
	"backend.events":   {"router.events", "client.events"},
	"job.queue":        {"client.request"},
	"job.run":          {"client.request"},
	"job.delivery":     {"client.request"},
	"backend.register": {"router.register"},
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap is the timing middleware around a tier's http.Handler. Only
// requests carrying the benchmark's request id are recorded; the rest
// (untraced requests, probes, stats scrapes) pass straight through.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(reqHeader)
		if id == "" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(span{Req: id, Name: layer + "." + routeKind(req), Start: start, End: time.Now()})
	})
}

func routeKind(req *http.Request) string {
	switch p := req.URL.Path; {
	case strings.HasSuffix(p, "/events"):
		return "events"
	case p == "/v1/graphs":
		return "register"
	default:
		return "submit"
	}
}

// clientSpans records the client's view of one request.
func (r *recorder) clientSpans(id string, start, posted, terminal time.Time) {
	r.add(span{Req: id, Name: "client.request", Start: start, End: terminal})
	r.add(span{Req: id, Name: "client.post", Start: start, End: posted})
	r.add(span{Req: id, Name: "client.events", Start: posted, End: terminal})
}

// jobSpans splits a finished job's life into queue wait and run time
// from its view's timestamps (run time has the view's millisecond
// resolution).
func (r *recorder) jobSpans(id string, v jobView) {
	started := v.Finished.Add(-time.Duration(v.ElapsedMS) * time.Millisecond)
	if started.Before(v.Created) {
		started = v.Created
	}
	r.add(span{Req: id, Name: "job.queue", Start: v.Created, End: started})
	r.add(span{Req: id, Name: "job.run", Start: started, End: v.Finished})
}

// byRequest groups spans per request and resolves each span's parent.
func (r *recorder) byRequest() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]span{}
	for _, s := range r.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	for id, ss := range out {
		present := map[string]bool{}
		for _, s := range ss {
			present[s.Name] = true
		}
		for i := range ss {
			for _, p := range parents[ss[i].Name] {
				if present[p] {
					ss[i].Parent = p
					break
				}
			}
		}
		out[id] = ss
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, all []span) time.Duration {
	var kids []span
	for _, c := range all {
		if c.Parent == s.Name {
			kids = append(kids, c)
		}
	}
	return s.dur() - covered(s, kids)
}

// covered is the length of the union of ivs clipped to within.
func covered(within span, ivs []span) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start.Before(ivs[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, iv := range ivs {
		s, e := iv.Start, iv.End
		if s.Before(within.Start) {
			s = within.Start
		}
		if e.After(within.End) {
			e = within.End
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curEnd) {
			if e.After(curEnd) {
				curEnd = e
			}
			continue
		}
		if open {
			total += curEnd.Sub(curStart)
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}

// layerMetrics derives the request-stream half of the per-layer
// metrics from the traced requests' spans and the phase's /v1/stats
// deltas, the counts per request of the phase.
func (r *recorder) layerMetrics(d counters, requests int) map[string]metric {
	reqs := r.byRequest()
	var proxySelf, submit, queue, run, delivery, generate []float64
	var coveredSum, totalSum time.Duration
	for id, ss := range reqs {
		if strings.HasPrefix(id, "setup-") {
			for _, s := range ss {
				if s.Parent == "" {
					generate = append(generate, ms(s.dur()))
				}
			}
			continue
		}
		var root *span
		var layers []span
		var proxy time.Duration
		for i, s := range ss {
			switch {
			case s.Name == "client.request":
				root = &ss[i]
			case strings.HasPrefix(s.Name, "router."):
				proxy += selfTime(s, ss)
			case s.Name == "backend.submit":
				submit = append(submit, ms(s.dur()))
			case s.Name == "job.queue":
				queue = append(queue, ms(s.dur()))
			case s.Name == "job.run":
				run = append(run, ms(s.dur()))
			case s.Name == "job.delivery":
				delivery = append(delivery, ms(s.dur()))
			}
			if !strings.HasPrefix(s.Name, "client.") && !strings.HasSuffix(s.Name, ".events") {
				layers = append(layers, s)
			}
		}
		if root == nil {
			continue
		}
		proxySelf = append(proxySelf, ms(proxy))
		coveredSum += covered(*root, layers)
		totalSum += root.dur()
	}
	hitRatio, coverage := 0.0, 0.0
	if d.Hits+d.Misses > 0 {
		hitRatio = float64(d.Hits) / float64(d.Hits+d.Misses)
	}
	if totalSum > 0 {
		coverage = float64(coveredSum) / float64(totalSum)
	}
	perReq := func(n int64) float64 { return float64(n) / float64(max(requests, 1)) }
	m := map[string]metric{}
	for name, v := range map[string]float64{
		"cluster.proxy_self_ms":  mean(proxySelf),
		"service.submit_ms":      mean(submit),
		"service.queue_wait_ms":  mean(queue),
		"service.job_run_ms":     mean(run),
		"service.delivery_ms":    mean(delivery),
		"cache.hit_ratio":        hitRatio,
		"cache.misses":           perReq(d.Misses),
		"cache.evictions":        perReq(d.Evictions),
		"store.disk_hits":        perReq(d.DiskHits),
		"batch.builds":           perReq(d.Batched),
		"batch.coalesced":        perReq(d.Coalesced),
		"batch.extends":          perReq(d.Extends),
		"batch.rr_sets_appended": perReq(d.Appended),
		"graph.generate_ms":      mean(generate),
		"trace.coverage":         coverage,
	} {
		m[name] = newMetric(name, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dump writes every span of the run as JSON under dir and returns the
// file's path.
func (r *recorder) dump(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	var all []span
	for _, ss := range r.byRequest() {
		all = append(all, ss...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start.Before(all[j].Start) })
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
