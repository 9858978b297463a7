// Package tracestore retains completed request traces — the span trees
// the telemetry package records — for after-the-fact inspection via
// GET /v1/traces. It is the data-plane sibling of internal/journal:
// the journal records control-plane *decisions*, the trace store keeps
// the per-request *timelines* those decisions acted on.
//
// Completed traces land in a bounded in-memory ring guarded by a
// single mutex (Add is called at request completion, so it does O(1)
// work and never blocks) and are asynchronously spilled as JSONL
// payloads inside CRC-framed segment files under <data-dir>/traces,
// with size-budgeted oldest-first rotation — ring, spill, and segment
// format are internal/seglog's, shared with the journal. Admission is
// tail-sampled: every trace that was slow, errored, or queued by
// admission control is kept, and fast successes are kept with a
// configurable probability — the interesting traces survive without
// the store having to retain every warm cache hit.
package tracestore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/seglog"
	"uicwelfare/internal/telemetry"
)

// Keep reasons stamped on retained records, so a reader can tell why a
// trace survived tail sampling.
const (
	KeptSlow    = "slow"
	KeptError   = "error"
	KeptQueued  = "queued"
	KeptSampled = "sampled"
)

// Record is one completed trace: identity, the request it served, the
// whole-request envelope (start, duration, outcome), and the retained
// span records with their per-span resource deltas. On the router tier
// Node distinguishes the router's fragment from the backend's; the two
// fragments of one trace id assemble into a single tree through the
// parent ids their spans carry.
type Record struct {
	// Seq is the store-local sequence number; it doubles as the
	// pagination cursor for GET /v1/traces.
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace_id"`
	Node    string `json:"node,omitempty"`
	// Route names the serving surface ("allocate", "warm", "proxy", ...).
	Route string `json:"route,omitempty"`
	Graph string `json:"graph,omitempty"`

	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Error      string    `json:"error,omitempty"`
	// Slow and Queued mark why the trace bypassed sampling; Kept names
	// the final keep reason (slow, error, queued, sampled).
	Slow   bool   `json:"slow,omitempty"`
	Queued bool   `json:"queued,omitempty"`
	Kept   string `json:"kept,omitempty"`

	Spans        []telemetry.Span `json:"spans,omitempty"`
	SpansDropped int64            `json:"spans_dropped,omitempty"`
	Resources    map[string]int64 `json:"resources,omitempty"`
}

// Summary returns the record without its span records — the list form
// GET /v1/traces pages through (the full tree is one GET
// /v1/traces/{id} away).
func (r Record) Summary() Record {
	r.Spans = nil
	return r
}

// SegmentMagic and SegmentExt frame and name the .wmt trace segments
// (internal/seglog owns the format).
const (
	SegmentMagic = "WMTRCE\x00\x00"
	SegmentExt   = ".wmt"
)

// ErrBadSegment reports an unreadable segment (wrong magic or version,
// truncated, or failed checksum).
var ErrBadSegment = seglog.ErrBadSegment

// Options configures a Store. The zero value is usable: an
// in-memory-only store (no Dir, no spill) that keeps only the traces
// tail sampling always keeps (slow, errored, queued); set SampleRate to
// keep fast successes too.
type Options struct {
	// Node stamps every record (e.g. "b0", "router").
	Node string
	// RingSize bounds the in-memory ring (default 512 traces).
	RingSize int
	// SampleRate is the probability of keeping a trace that is neither
	// slow nor errored nor queued, clamped to [0, 1]: 0 (the zero value)
	// or negative keeps none of them, 1 keeps all — welmaxd passes
	// -trace-sample.
	SampleRate float64
	// Dir enables async segment spill when non-empty (callers pass
	// <data-dir>/traces).
	Dir string
	// SegmentBytes seals a segment once its JSONL payload reaches this
	// size (default 256 KiB).
	SegmentBytes int64
	// MaxBytes bounds the segment directory; oldest segments are
	// deleted past it (default 32 MiB; the store must not grow without
	// bound).
	MaxBytes int64
	// FlushInterval seals a non-empty pending segment even below
	// SegmentBytes, so a quiet store still reaches disk (default 5s).
	FlushInterval time.Duration
}

// Stats is the store's self-accounting, exported as gauges.
type Stats struct {
	// Offered counts every trace presented to Add; Kept the ones
	// retained; SampledOut the fast successes sampling discarded.
	Offered    int64 `json:"offered"`
	Kept       int64 `json:"kept"`
	SampledOut int64 `json:"sampled_out"`
	seglog.Stats
}

// Store holds the bounded trace ring and the optional disk spill.
type Store struct {
	node   string
	sample float64
	log    *seglog.Log[Record]
	dir    string

	rngMu sync.Mutex
	rng   *rand.Rand

	offered    atomic.Int64
	sampledOut atomic.Int64
}

// New creates a Store. When opts.Dir is set the directory is created
// and the background spill goroutine started; Close flushes and stops
// it.
func New(opts Options) (*Store, error) {
	size := opts.RingSize
	if size <= 0 {
		size = 512
	}
	ring, err := seglog.New(seglog.Config{
		RingSize:      size,
		DefaultLimit:  DefaultLimit,
		MaxLimit:      MaxLimit,
		Dir:           opts.Dir,
		Name:          "traces",
		Magic:         SegmentMagic,
		Ext:           SegmentExt,
		SpillBuffer:   256, // traces are larger and fewer than journal events
		SegmentBytes:  opts.SegmentBytes,
		MaxBytes:      opts.MaxBytes,
		FlushInterval: opts.FlushInterval,
	}, func(r *Record) *uint64 { return &r.Seq })
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Store{
		node:   opts.Node,
		sample: min(max(opts.SampleRate, 0), 1),
		log:    ring,
		dir:    opts.Dir,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Add offers one completed trace to the store. Tail sampling decides
// retention: slow, errored, and admission-queued traces are always
// kept; the rest survive with the configured sample probability. Add
// reports whether the record was kept. Safe from any goroutine; a nil
// store keeps nothing.
func (s *Store) Add(rec Record) bool {
	if s == nil {
		return false
	}
	s.offered.Add(1)
	if rec.Node == "" {
		rec.Node = s.node
	}
	if rec.Start.IsZero() {
		rec.Start = time.Now().UTC()
	}
	switch {
	case rec.Error != "":
		rec.Kept = KeptError
	case rec.Slow:
		rec.Kept = KeptSlow
	case rec.Queued:
		rec.Kept = KeptQueued
	default:
		s.rngMu.Lock()
		keep := s.rng.Float64() < s.sample
		s.rngMu.Unlock()
		if !keep {
			s.sampledOut.Add(1)
			return false
		}
		rec.Kept = KeptSampled
	}
	s.log.Append(rec)
	return true
}

// Query selects traces from the ring. The zero value returns the most
// recent DefaultLimit traces.
type Query struct {
	// After is the pagination cursor: only records with Seq > After are
	// returned. 0 starts from the oldest retained record.
	After uint64
	// Route and Graph filter on the corresponding fields when non-empty.
	Route string
	Graph string
	// MinMS drops traces faster than this many milliseconds.
	MinMS float64
	// Since drops traces started before it when non-zero.
	Since time.Time
	// Limit caps the result (default DefaultLimit, max MaxLimit).
	Limit int
}

// Query result bounds.
const (
	DefaultLimit = 50
	MaxLimit     = 500
)

// Match reports whether the record passes the query's filters (the
// cursor and limit are handled by Traces; Match is exported so the
// router can filter a merged cross-shard page with the same rules).
func (q Query) Match(r Record) bool {
	if q.Route != "" && r.Route != q.Route {
		return false
	}
	if q.Graph != "" && r.Graph != q.Graph {
		return false
	}
	if q.MinMS > 0 && r.DurationMS < q.MinMS {
		return false
	}
	if !q.Since.IsZero() && r.Start.Before(q.Since) {
		return false
	}
	return true
}

// Traces returns matching trace summaries (spans stripped) in sequence
// order plus the cursor to pass as After on the next call — the last
// examined sequence number, regardless of filter matches, so
// pagination advances past filtered spans of the ring too. next equals
// q.After when nothing new was examined.
func (s *Store) Traces(q Query) (records []Record, next uint64) {
	if s == nil {
		return nil, q.After
	}
	records, next = s.log.Page(q.After, q.Limit, q.Match)
	for i := range records {
		records[i] = records[i].Summary()
	}
	return records, next
}

// Get returns the full record (spans included) for a trace id. The
// ring is searched newest-first; on a miss the spilled segments are
// scanned newest-first, so a trace that aged out of the ring is still
// retrievable while its segment survives the byte budget.
func (s *Store) Get(id string) (Record, bool) {
	if s == nil || id == "" {
		return Record{}, false
	}
	if rec, ok := s.log.Find(func(r Record) bool { return r.TraceID == id }); ok {
		return rec, true
	}
	if s.dir == "" {
		return Record{}, false
	}
	return s.getFromDisk(id)
}

// getFromDisk scans spilled segments newest-first for the trace id.
func (s *Store) getFromDisk(id string) (Record, bool) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return Record{}, false
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), SegmentExt) {
			names = append(names, e.Name())
		}
	}
	// Segment names sort chronologically (see seglog); scan newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		recs, err := ReadSegment(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].TraceID == id {
				return recs[i], true
			}
		}
	}
	return Record{}, false
}

// LastSeq returns the most recently assigned sequence number (0 when
// nothing has been kept).
func (s *Store) LastSeq() uint64 {
	if s == nil {
		return 0
	}
	return s.log.LastSeq()
}

// Stats snapshots the store's counters. A nil store reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Offered:    s.offered.Load(),
		Kept:       int64(s.log.LastSeq()),
		SampledOut: s.sampledOut.Load(),
		Stats:      s.log.Stats(),
	}
}

// Close stops the spill goroutine after flushing any pending segment.
// The ring remains queryable. Close is a no-op for in-memory stores
// and idempotent otherwise.
func (s *Store) Close() {
	if s != nil {
		s.log.Close()
	}
}

// ReadSegment decodes one segment file, verifying magic, version,
// length, and checksum, and returns its records in kept order.
func ReadSegment(path string) ([]Record, error) {
	return seglog.ReadSegment[Record](path, SegmentMagic)
}
