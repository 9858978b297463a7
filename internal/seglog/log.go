package seglog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Segment files hold a Log's spilled entries: one frame whose payload is
// JSON lines, named <name>-<epoch>-<first seq>, both in 16 hex digits.
// The epoch is the Log's creation time in Unix nanoseconds, so a
// restarted process (whose sequence numbers start again at 1) never
// overwrites the previous run's segments, and lexical name order stays
// chronological. Segments of the older <name>-<first seq> form sort
// before every epoch-named one and read the same way.
const (
	// SegmentVersion is the frame version of every segment file.
	SegmentVersion = 1

	// maxSegmentPayload bounds a declared segment payload length so a
	// corrupt header cannot force an absurd allocation.
	maxSegmentPayload = 1 << 30
)

// ErrBadSegment reports an unreadable segment (wrong magic or version,
// truncated, or failed checksum); the frame error is wrapped alongside.
var ErrBadSegment = errors.New("bad segment")

// Config configures a Log. Only RingSize is required; an empty Dir keeps
// the log in memory.
type Config struct {
	// RingSize bounds the in-memory ring.
	RingSize int
	// DefaultLimit and MaxLimit clamp a Page's limit.
	DefaultLimit, MaxLimit int

	// Dir enables the asynchronous segment spill when non-empty. Name,
	// Magic and Ext name and frame the segment files written into it.
	Dir   string
	Name  string
	Magic string
	Ext   string
	// SpillBuffer is the spill channel capacity; an Append that finds it
	// full drops the disk copy (counted in Stats.Dropped) instead of
	// blocking.
	SpillBuffer int
	// SegmentBytes seals a segment once its JSONL payload reaches this
	// size (default 256 KiB).
	SegmentBytes int64
	// MaxBytes bounds the segment directory; oldest segments are deleted
	// past it (default 32 MiB).
	MaxBytes int64
	// FlushInterval seals a non-empty pending segment even below
	// SegmentBytes, so a quiet log still reaches disk (default 5s).
	FlushInterval time.Duration
}

// Stats is a Log's self-accounting. Embedded in the journal's and the
// trace store's stats, its fields flatten into theirs.
type Stats struct {
	// Dropped counts entries whose disk spill was dropped because the
	// spill channel was full (the ring still saw them).
	Dropped int64 `json:"dropped"`
	// RingLen/RingCap describe current ring occupancy.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`
	// Segments counts segment files sealed; SpillErrors counts failed
	// segment writes.
	Segments    int64 `json:"segments"`
	SpillErrors int64 `json:"spill_errors"`
}

// Log is a bounded ring of entries with sequence numbers, cursor paging,
// and an optional asynchronous spill into CRC-framed JSONL segment
// files rotated within a byte budget. Append is O(1) under one mutex and
// never blocks, so it is safe to call from hot paths holding other
// locks.
type Log[T any] struct {
	cfg Config
	// seq points at an entry's sequence-number field.
	seq func(*T) *uint64

	mu   sync.Mutex
	buf  []T    // ring storage, len(buf) == capacity
	head int    // index of the oldest entry
	n    int    // entries currently in the ring
	next uint64 // next sequence number (the first entry gets 1)

	dropped     atomic.Int64
	segments    atomic.Int64
	spillErrors atomic.Int64

	// Spill state (nil/zero when Dir is unset).
	epoch     int64
	spill     chan T
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New creates a Log whose entries carry their sequence number in the
// field seq points at. When cfg.Dir is set the directory is created and
// the spill goroutine started; Close flushes and stops it.
func New[T any](cfg Config, seq func(*T) *uint64) (*Log[T], error) {
	l := &Log[T]{cfg: cfg, seq: seq, buf: make([]T, cfg.RingSize), next: 1}
	if cfg.Dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if l.cfg.SegmentBytes <= 0 {
		l.cfg.SegmentBytes = 256 << 10
	}
	if l.cfg.MaxBytes <= 0 {
		l.cfg.MaxBytes = 32 << 20
	}
	if l.cfg.FlushInterval <= 0 {
		l.cfg.FlushInterval = 5 * time.Second
	}
	l.epoch = time.Now().UnixNano()
	l.spill = make(chan T, cfg.SpillBuffer)
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go l.spillLoop()
	return l, nil
}

// Append stamps v with the next sequence number, stores it in the ring
// (overwriting the oldest entry when full), offers it to the spill
// without blocking, and returns the stamped entry.
func (l *Log[T]) Append(v T) T {
	l.mu.Lock()
	var slot *T
	if l.n < len(l.buf) {
		slot = &l.buf[(l.head+l.n)%len(l.buf)]
		l.n++
	} else {
		slot = &l.buf[l.head]
		l.head = (l.head + 1) % len(l.buf)
	}
	// Stamp the ring slot rather than v: taking v's address would move
	// every appended entry to the heap.
	*slot = v
	*l.seq(slot) = l.next
	l.next++
	v = *slot
	l.mu.Unlock()

	if l.spill != nil {
		select {
		case l.spill <- v:
		default:
			l.dropped.Add(1)
		}
	}
	return v
}

// Page returns the entries with sequence number above after that pass
// match, in sequence order and at most limit of them (0 means
// DefaultLimit; MaxLimit caps it), plus the cursor to pass as after on
// the next call: the last sequence number examined, regardless of
// matches, so paging advances past filtered spans of the ring too. next
// equals after when nothing new was examined. match runs under the
// log's lock, so it must be a plain predicate.
func (l *Log[T]) Page(after uint64, limit int, match func(T) bool) (out []T, next uint64) {
	if limit <= 0 {
		limit = l.cfg.DefaultLimit
	}
	limit = min(limit, l.cfg.MaxLimit)
	l.mu.Lock()
	defer l.mu.Unlock()
	next = after
	for i := 0; i < l.n; i++ {
		slot := &l.buf[(l.head+i)%len(l.buf)]
		if *l.seq(slot) <= after {
			continue
		}
		next = *l.seq(slot)
		if match(*slot) {
			out = append(out, *slot)
			if len(out) >= limit {
				break
			}
		}
	}
	return out, next
}

// Find returns the newest ring entry that passes match (which, as for
// Page, runs under the log's lock).
func (l *Log[T]) Find(match func(T) bool) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.n - 1; i >= 0; i-- {
		if v := l.buf[(l.head+i)%len(l.buf)]; match(v) {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// LastSeq returns the most recently assigned sequence number (0 when
// nothing has been appended), which is also the count of appends.
func (l *Log[T]) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Stats snapshots the log's counters.
func (l *Log[T]) Stats() Stats {
	l.mu.Lock()
	n := l.n
	l.mu.Unlock()
	return Stats{
		Dropped:     l.dropped.Load(),
		RingLen:     n,
		RingCap:     len(l.buf),
		Segments:    l.segments.Load(),
		SpillErrors: l.spillErrors.Load(),
	}
}

// Close stops the spill goroutine after sealing any pending segment.
// The ring remains queryable. Close is a no-op for in-memory logs and
// idempotent otherwise.
func (l *Log[T]) Close() {
	if l.stop == nil {
		return
	}
	l.closeOnce.Do(func() {
		close(l.stop)
		<-l.done
	})
}

// spillLoop drains the spill channel into a pending JSONL buffer and
// seals it into a segment file when it reaches the size threshold, on
// the flush ticker, and at shutdown.
func (l *Log[T]) spillLoop() {
	defer close(l.done)
	var pending bytes.Buffer
	var firstSeq uint64
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()

	seal := func() {
		if pending.Len() > 0 {
			l.seal(pending.Bytes(), firstSeq)
			pending.Reset()
		}
	}
	add := func(v T) {
		// Marshal through the pointer: v is on the heap anyway (l.seq
		// takes its address), so boxing a copy would allocate twice.
		line, err := json.Marshal(&v)
		if err != nil {
			return
		}
		if pending.Len() == 0 {
			firstSeq = *l.seq(&v)
		}
		pending.Write(line)
		pending.WriteByte('\n')
		if int64(pending.Len()) >= l.cfg.SegmentBytes {
			seal()
		}
	}

	for {
		select {
		case v := <-l.spill:
			add(v)
		case <-ticker.C:
			seal()
		case <-l.stop:
			for len(l.spill) > 0 {
				add(<-l.spill)
			}
			seal()
			return
		}
	}
}

// seal writes one pending JSONL payload as a segment file and enforces
// the byte budget. A failed write is counted and the payload dropped,
// never retried into an ever-growing buffer.
func (l *Log[T]) seal(payload []byte, firstSeq uint64) {
	name := fmt.Sprintf("%s-%016x-%016x%s", l.cfg.Name, l.epoch, firstSeq, l.cfg.Ext)
	err := WriteAtomic(filepath.Join(l.cfg.Dir, name), func(f *os.File) error {
		return WriteFrame(f, l.cfg.Magic, SegmentVersion, payload)
	})
	if err != nil {
		l.spillErrors.Add(1)
		return
	}
	l.segments.Add(1)
	EvictOldest(l.cfg.Dir, l.cfg.Ext, l.cfg.MaxBytes)
}

// ReadSegment decodes one segment file, verifying its frame, and returns
// its entries in spill order. Lines that do not decode as T are skipped;
// a line has no length cap, since the frame already bounds and
// checksums the whole payload.
func ReadSegment[T any](path, magic string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, err := ReadFrame(f, magic, SegmentVersion, maxSegmentPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSegment, err)
	}
	var out []T
	for rest := payload; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var v T
		if json.Unmarshal(line, &v) == nil {
			out = append(out, v)
		}
	}
	return out, nil
}
