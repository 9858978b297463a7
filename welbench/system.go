package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/service"
)

// daemonOptions mirrors welmaxd's flag defaults, so the system under
// test is configured the way the daemon ships. A workload overrides only
// what its table row says (cache bound, data dir, node id).
func daemonOptions() service.Options {
	return service.Options{
		Workers:        2,
		SketchWorkers:  0, // -sketch-workers 0 = GOMAXPROCS
		QueueCap:       64,
		CacheEntries:   64,
		JobRetention:   1024,
		BatchWindow:    10 * time.Millisecond,
		AdmissionWait:  2 * time.Second,
		AdmissionSlack: 1.5,
		SlowThreshold:  time.Second,
		TraceSample:    0.05,
	}
}

// options is daemonOptions with the workload's sketch-cache bound.
func (w *workload) options() service.Options {
	opts := daemonOptions()
	if w.cache > 0 {
		opts.CacheEntries = w.cache
	}
	return opts
}

// routerOptions mirrors welmaxd's router-mode flag defaults.
func routerOptions(backends []cluster.Backend, spillDir string) cluster.Options {
	return cluster.Options{
		Backends:              backends,
		ProbeInterval:         2 * time.Second,
		ProxyTimeout:          30 * time.Second,
		SpillDir:              spillDir,
		SweepShardConcurrency: 2,
		TraceSample:           0.05,
	}
}

// server is one loopback HTTP listener serving a handler.
type server struct {
	srv *http.Server
	url string
	err chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	go func() { s.err <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for Serve to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.err
}

// backend is one in-process service.Service behind its own listener.
type backend struct {
	name string
	svc  *service.Service
	http *server
}

// system is the system under test: one or more backends and, for a
// routed workload, the cluster router in front of them. Clients talk to
// url; stats are read per backend.
type system struct {
	backends []*backend
	router   *cluster.Router
	rhttp    *server
	url      string
}

// wrapFunc lets the traced run put timing middleware around a tier's
// handler; layer is "router" or "backend".
type wrapFunc func(layer string, h http.Handler) http.Handler

func noWrap(_ string, h http.Handler) http.Handler { return h }

func startBackend(name string, opts service.Options, wrap wrapFunc) (*backend, error) {
	opts.NodeID = name
	svc, err := service.New(opts)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", name, err)
	}
	hs, err := serve(wrap("backend", svc.Handler()))
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &backend{name: name, svc: svc, http: hs}, nil
}

func (b *backend) stop() {
	b.http.stop()
	b.svc.Close()
}

// startSingle starts one backend that clients address directly.
func startSingle(opts service.Options, wrap wrapFunc) (*system, error) {
	b, err := startBackend("", opts, wrap)
	if err != nil {
		return nil, err
	}
	return &system{backends: []*backend{b}, url: b.http.url}, nil
}

// startRouted starts n backends ("b0", "b1", ...) and a router over
// them, and waits until the router's first probe round saw every
// backend healthy.
func startRouted(n int, opts service.Options, spillDir string, wrap wrapFunc) (*system, error) {
	sys := &system{}
	var topo []cluster.Backend
	for i := 0; i < n; i++ {
		b, err := startBackend(fmt.Sprintf("b%d", i), opts, wrap)
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.backends = append(sys.backends, b)
		topo = append(topo, cluster.Backend{Name: b.name, URL: b.http.url})
	}
	rt, err := cluster.New(routerOptions(topo, spillDir))
	if err != nil {
		sys.stop()
		return nil, fmt.Errorf("router: %w", err)
	}
	sys.router = rt
	rt.Start()
	if sys.rhttp, err = serve(wrap("router", rt.Handler())); err != nil {
		sys.stop()
		return nil, err
	}
	sys.url = sys.rhttp.url
	if err := sys.awaitHealthy(n); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// awaitHealthy polls the router's stats until n backends are up.
func (s *system) awaitHealthy(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Cluster struct {
				Backends []cluster.BackendStatus `json:"backends"`
			} `json:"cluster"`
		}
		if err := getJSON(http.DefaultClient, s.url+"/v1/stats", &st); err == nil {
			healthy := 0
			for _, b := range st.Cluster.Backends {
				if b.Healthy {
					healthy++
				}
			}
			if healthy >= n {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("router: %d backends never became healthy", n)
}

func (s *system) stop() {
	if s.rhttp != nil {
		s.rhttp.stop()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, b := range s.backends {
		b.stop()
	}
}

// stats sums the counters the benchmark reads from every backend's
// /v1/stats (the router's own stats wrap these per backend; reading the
// backends directly keeps the router's scrape out of the numbers).
func (s *system) stats() (counters, error) {
	var sum counters
	for _, b := range s.backends {
		var st service.StatsResponse
		if err := getJSON(http.DefaultClient, b.http.url+"/v1/stats", &st); err != nil {
			return sum, fmt.Errorf("stats %s: %w", b.name, err)
		}
		sum = sum.plus(countersOf(&st), 1)
	}
	return sum, nil
}

// counters are the /v1/stats work counts the per-layer metrics and the
// stats-vs-client checks read.
type counters struct {
	Hits, Misses, Evictions          int64
	DiskHits, Spills, DiskLoadErrors int64
	Batched, Coalesced               int64
	Extends, Appended                int64
	CellsDone, CellsFailed           int64
	AdmissionRejects                 int64
}

func countersOf(st *service.StatsResponse) counters {
	c := counters{
		Hits:             st.SketchCache.Hits,
		Misses:           st.SketchCache.Misses,
		Evictions:        st.SketchCache.Evictions,
		Batched:          st.Batch.Batched,
		Coalesced:        st.Batch.CoalescedRequests,
		Extends:          st.Batch.SketchExtends,
		Appended:         st.Batch.RRSetsAppended,
		CellsDone:        st.Sweeps.CellsDone,
		CellsFailed:      st.Sweeps.CellsFailed + st.Sweeps.CellsCanceled,
		AdmissionRejects: st.Batch.AdmissionRejects,
	}
	if st.DiskTier != nil {
		c.DiskHits = st.DiskTier.Hits
		c.Spills = st.DiskTier.Spills
		c.DiskLoadErrors = st.DiskTier.LoadErrors
	}
	return c
}

// plus returns c + sign·o, field by field.
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		Hits: c.Hits + sign*o.Hits, Misses: c.Misses + sign*o.Misses, Evictions: c.Evictions + sign*o.Evictions,
		DiskHits: c.DiskHits + sign*o.DiskHits, Spills: c.Spills + sign*o.Spills, DiskLoadErrors: c.DiskLoadErrors + sign*o.DiskLoadErrors,
		Batched: c.Batched + sign*o.Batched, Coalesced: c.Coalesced + sign*o.Coalesced,
		Extends: c.Extends + sign*o.Extends, Appended: c.Appended + sign*o.Appended,
		CellsDone: c.CellsDone + sign*o.CellsDone, CellsFailed: c.CellsFailed + sign*o.CellsFailed,
		AdmissionRejects: c.AdmissionRejects + sign*o.AdmissionRejects,
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// workDir returns a fresh directory for one system's persistent state
// under the run's scratch root.
func workDir(root, name string) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
}
