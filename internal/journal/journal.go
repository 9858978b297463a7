// Package journal is welmaxd's control-plane flight recorder. The data
// plane got its observability in the telemetry package (traces,
// histograms, /v1/metrics); this package records the *decisions* around
// it — membership transitions, ownership flips, sketch ships,
// rebalances, cache evictions, admission verdicts, sweep dispatch — as
// typed, timestamped events an operator (or a test) can query after the
// fact instead of reconstructing incidents from stderr.
//
// Events land in a bounded in-memory ring guarded by a single mutex
// (Record is called from hot paths, some holding other locks, so it
// does O(1) work and never blocks), feed live subscribers for SSE
// tails, and are asynchronously spilled as JSONL payloads inside
// CRC-framed segment files under <data-dir>/journal/ with size-budgeted
// oldest-first rotation — ring, spill, and segment format are
// internal/seglog's, shared with the trace store. The spill is
// best-effort by design: a full channel drops the disk copy (counted,
// never blocking the caller) while the ring and subscribers still see
// the event.
package journal

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"uicwelfare/internal/seglog"
)

// Event types recorded by the cluster and service tiers. The set is a
// contract: scripts/cluster_smoke.sh and the HA roadmap work assert
// against these strings.
const (
	MemberUp   = "member_up"
	MemberDown = "member_down"

	OwnershipFlip   = "ownership_flip"
	SketchShip      = "sketch_ship"
	RebalanceStart  = "rebalance_start"
	RebalanceDone   = "rebalance_done"
	RebalanceFailed = "rebalance_failed"

	CacheEvict  = "cache_evict"
	CacheExpire = "cache_expire"

	AdmissionQueue       = "admission_queue"
	AdmissionReject      = "admission_reject"
	AdmissionRecalibrate = "admission_recalibrate"

	SweepDispatch      = "sweep_dispatch"
	SweepRetry         = "sweep_retry"
	SweepShardFailover = "sweep_shard_failover"

	JobSpill  = "job_spill"
	JobReplay = "job_replay"

	BatchFire = "batch_fire"
)

// Event is one control-plane decision. Only Type is always set; the
// remaining fields are a fixed vocabulary shared by all event types so
// the journal stays queryable (filter by graph, node, trace) without a
// per-type schema. Zero-valued fields are omitted from the JSON.
type Event struct {
	// Seq is the recorder-local monotonically increasing sequence
	// number; it doubles as the pagination cursor for GET /v1/events.
	Seq uint64 `json:"seq"`
	// TS is the wall-clock record time (the cross-shard merge key).
	TS   time.Time `json:"ts"`
	Type string    `json:"type"`
	// Node is the recording node (stamped by the Recorder).
	Node    string `json:"node,omitempty"`
	Graph   string `json:"graph,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Key is a sketch-cache key for cache and batch events.
	Key string `json:"key,omitempty"`
	// From/To carry node names for ownership flips and ships.
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
	Job   string `json:"job,omitempty"`
	Sweep string `json:"sweep,omitempty"`
	Cell  string `json:"cell,omitempty"`
	// Count and Bytes quantify the event (sketches shipped, entries
	// evicted, estimated admission cost, ...).
	Count  int64  `json:"count,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SegmentMagic and SegmentExt frame and name the .wmj journal segments
// (internal/seglog owns the format).
const (
	SegmentMagic = "WMJRNL\x00\x00"
	SegmentExt   = ".wmj"
)

// ErrBadSegment reports an unreadable segment (wrong magic or version,
// truncated, or failed checksum).
var ErrBadSegment = seglog.ErrBadSegment

// Options configures a Recorder. The zero value is usable: an
// in-memory-only journal (no Dir, no spill) with default ring size.
type Options struct {
	// Node stamps every recorded event (e.g. "b0", "router").
	Node string
	// RingSize bounds the in-memory ring (default 4096 events).
	RingSize int
	// Dir enables async segment spill when non-empty; segments are
	// written directly into it (callers pass <data-dir>/journal).
	Dir string
	// SegmentBytes seals a segment once its JSONL payload reaches this
	// size (default 256 KiB).
	SegmentBytes int64
	// MaxBytes bounds the segment directory; oldest segments are
	// deleted past it (default 32 MiB, 0 keeps the default — the
	// journal must not grow without bound).
	MaxBytes int64
	// FlushInterval seals a non-empty pending segment even below
	// SegmentBytes, so a quiet journal still reaches disk (default 5s).
	FlushInterval time.Duration
}

// Stats is the recorder's self-accounting, exported as gauges.
type Stats struct {
	// Recorded counts all events accepted into the ring.
	Recorded int64 `json:"recorded"`
	seglog.Stats
}

// Recorder is the flight recorder: a bounded ring of recent events,
// live subscribers, and an optional async disk spill.
type Recorder struct {
	node string
	log  *seglog.Log[Event]

	subMu sync.Mutex
	subs  map[chan Event]struct{}
}

// New creates a Recorder. When opts.Dir is set the directory is
// created and the background spill goroutine started; Close flushes
// and stops it.
func New(opts Options) (*Recorder, error) {
	size := opts.RingSize
	if size <= 0 {
		size = 4096
	}
	ring, err := seglog.New(seglog.Config{
		RingSize:      size,
		DefaultLimit:  DefaultLimit,
		MaxLimit:      MaxLimit,
		Dir:           opts.Dir,
		Name:          "journal",
		Magic:         SegmentMagic,
		Ext:           SegmentExt,
		SpillBuffer:   1024, // absorbs bursts (a rebalance, an eviction sweep) between spill wakeups
		SegmentBytes:  opts.SegmentBytes,
		MaxBytes:      opts.MaxBytes,
		FlushInterval: opts.FlushInterval,
	}, func(e *Event) *uint64 { return &e.Seq })
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Recorder{node: opts.Node, log: ring, subs: make(map[chan Event]struct{})}, nil
}

// Record stamps and stores one event. It is safe to call from any
// goroutine, including ones holding unrelated locks: the critical
// section is O(1), the spill send and subscriber notifies are
// non-blocking, and nothing here does I/O.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.TS.IsZero() {
		e.TS = time.Now().UTC()
	}
	if e.Node == "" {
		e.Node = r.node
	}
	e = r.log.Append(e)

	r.subMu.Lock()
	for ch := range r.subs {
		select {
		case ch <- e:
		default: // slow subscriber: skip, the ring has the event
		}
	}
	r.subMu.Unlock()
}

// Query selects events from the ring. The zero value returns the most
// recent DefaultLimit events.
type Query struct {
	// After is the pagination cursor: only events with Seq > After are
	// returned. 0 starts from the oldest retained event.
	After uint64
	// Type, Graph, Node, and Trace filter on the corresponding fields
	// when non-empty. Type may be a comma-separated list.
	Type  string
	Graph string
	Node  string
	Trace string
	// Since drops events recorded before it when non-zero.
	Since time.Time
	// Limit caps the result (default DefaultLimit, max MaxLimit).
	Limit int
}

// Query result bounds.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
)

// Match reports whether the event passes the query's filters (the
// cursor and limit are handled by Events; Match is exported so the
// router can filter a merged cross-shard stream with the same rules).
func (q Query) Match(e Event) bool {
	if q.Type != "" {
		ok := false
		for _, t := range strings.Split(q.Type, ",") {
			if strings.TrimSpace(t) == e.Type {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.Graph != "" && e.Graph != q.Graph {
		return false
	}
	if q.Node != "" && e.Node != q.Node {
		return false
	}
	if q.Trace != "" && e.TraceID != q.Trace {
		return false
	}
	if !q.Since.IsZero() && e.TS.Before(q.Since) {
		return false
	}
	return true
}

// Events returns matching events in sequence order plus the cursor to
// pass as After on the next call (the last examined sequence number,
// regardless of filter matches, so pagination advances past filtered
// spans too). next equals q.After when nothing new was examined.
func (r *Recorder) Events(q Query) (events []Event, next uint64) {
	return r.log.Page(q.After, q.Limit, q.Match)
}

// LastSeq returns the most recently assigned sequence number (0 when
// nothing has been recorded). SSE tails start here.
func (r *Recorder) LastSeq() uint64 {
	return r.log.LastSeq()
}

// Subscribe registers a live event channel. Slow subscribers miss
// events rather than blocking recorders; the returned cancel must be
// called exactly once.
func (r *Recorder) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	r.subMu.Lock()
	r.subs[ch] = struct{}{}
	r.subMu.Unlock()
	cancel := func() {
		r.subMu.Lock()
		delete(r.subs, ch)
		r.subMu.Unlock()
	}
	return ch, cancel
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() Stats {
	return Stats{Recorded: int64(r.log.LastSeq()), Stats: r.log.Stats()}
}

// Close stops the spill goroutine after flushing any pending segment.
// The ring remains queryable. Close is a no-op for in-memory journals
// and idempotent otherwise.
func (r *Recorder) Close() {
	if r != nil {
		r.log.Close()
	}
}

// ReadSegment decodes one segment file, verifying magic, version,
// length, and checksum, and returns its events in recorded order.
func ReadSegment(path string) ([]Event, error) {
	return seglog.ReadSegment[Event](path, SegmentMagic)
}
