package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// EventLog is the unified structured event log: one logger, one JSON
// line per event, one schema. Every line carries the envelope fields
//
//	ts       RFC3339Nano UTC timestamp
//	seq      monotone sequence number, assigned under the write mutex
//	kind     event kind (slow_query, wal_rotate, compaction, snapshot,
//	         restore, breaker_trip, breaker_recover, degraded_enter,
//	         degraded_exit, panic, boot_phase, wal_replay, ...)
//	trace_id originating request trace, when one exists (omitted
//	         otherwise)
//
// plus the event's own fields flattened alongside. Because seq is
// assigned and the line written under one mutex, the file order IS the
// seq order: of all admissible interleavings of updates, compactions,
// rotations and breaker transitions, the log pins down exactly one —
// the determination-provenance property that lets post-hoc debugging
// attribute any observed answer to the state sequence that produced it.
//
// A file-backed log (OpenEventLog) rotates by size: when a write would
// push the file past maxBytes it is renamed to path.1 (existing
// rotations shifting to path.2, ...) and a fresh file opens; at most
// keep rotated files are retained.
type EventLog struct {
	mu   sync.Mutex
	w    io.Writer
	seq  uint64
	size int64

	// File-backed rotation state; nil file means a plain writer sink.
	file     *os.File
	path     string
	maxBytes int64
	keep     int

	events    atomic.Int64
	rotations atomic.Int64
	dropped   atomic.Int64
}

// NewEventLog wraps an arbitrary writer (stderr, a test buffer) as an
// event sink without rotation. A nil writer yields a nil log, and every
// EventLog method is nil-safe, so "events disabled" is just a nil log.
func NewEventLog(w io.Writer) *EventLog {
	if w == nil {
		return nil
	}
	return &EventLog{w: w}
}

// OpenEventLog opens (appending) a file-backed event log that rotates
// when the file would exceed maxBytes, keeping at most keep (>= 1)
// rotated files (path.1 newest).
func OpenEventLog(path string, maxBytes int64, keep int) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("event log %s: %w", path, err)
	}
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	return &EventLog{w: f, file: f, path: path, maxBytes: maxBytes, keep: keep, size: size}, nil
}

// Emit writes one event. traceID 0 means "no originating request" and
// is omitted from the line. The fields map is marshaled alongside the
// envelope; callers must not use the reserved keys ts/seq/kind/trace_id.
// Nil-safe: a nil log drops the event.
func (l *EventLog) Emit(kind string, traceID uint64, fields map[string]any) {
	if l == nil {
		return
	}
	doc := make(map[string]any, len(fields)+4)
	for k, v := range fields {
		doc[k] = v
	}
	doc["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	doc["kind"] = kind
	if traceID != 0 {
		doc["trace_id"] = traceID
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	doc["seq"] = l.seq
	b, err := json.Marshal(doc)
	if err != nil {
		l.dropped.Add(1)
		return
	}
	b = append(b, '\n')
	if l.file != nil && l.size > 0 && l.size+int64(len(b)) > l.maxBytes {
		l.rotateLocked()
	}
	n, err := l.w.Write(b)
	l.size += int64(n)
	if err != nil {
		l.dropped.Add(1)
		return
	}
	l.events.Add(1)
}

// rotateLocked shifts path.i → path.(i+1), moves the live file to
// path.1 and reopens a fresh one. On reopen failure the old handle
// keeps serving (the log degrades to unbounded rather than silent).
func (l *EventLog) rotateLocked() {
	_ = l.file.Close()
	_ = os.Remove(fmt.Sprintf("%s.%d", l.path, l.keep))
	for i := l.keep - 1; i >= 1; i-- {
		_ = os.Rename(fmt.Sprintf("%s.%d", l.path, i), fmt.Sprintf("%s.%d", l.path, i+1))
	}
	_ = os.Rename(l.path, l.path+".1")
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Reopen the original append handle path as best effort.
		if f2, err2 := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err2 == nil {
			f = f2
		} else {
			l.dropped.Add(1)
			return
		}
	}
	l.file = f
	l.w = f
	l.size = 0
	l.rotations.Add(1)
}

// EventLogStats is the logger's counter snapshot for /metrics.
type EventLogStats struct {
	Enabled   bool  `json:"enabled"`
	Events    int64 `json:"events"`
	Seq       int64 `json:"seq"`
	Rotations int64 `json:"rotations"`
	Dropped   int64 `json:"dropped"`
}

// Stats snapshots the counters. Nil-safe.
func (l *EventLog) Stats() EventLogStats {
	if l == nil {
		return EventLogStats{}
	}
	l.mu.Lock()
	seq := int64(l.seq)
	l.mu.Unlock()
	return EventLogStats{
		Enabled:   true,
		Events:    l.events.Load(),
		Seq:       seq,
		Rotations: l.rotations.Load(),
		Dropped:   l.dropped.Load(),
	}
}

// Close closes a file-backed log. Nil-safe; plain-writer logs no-op.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.file.Close()
	l.file = nil
	l.w = io.Discard
	return err
}
