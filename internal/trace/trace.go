// Package trace is the dependency-free span type of query-lifecycle
// observability. A Trace is a flat list of named spans (phase begin/end
// with microsecond offsets from trace start) plus trace-level attributes.
// The serving layer embeds one in each per-request record (obs.Request),
// which assigns the ID and retains finished records; exec and core only
// ever see the *Trace.
//
// Every method is safe on a nil receiver, so instrumentation sites call
// Begin/End/Annot unconditionally; the disabled path costs one nil check.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a trace or span.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one completed (or still-open, DurUS < 0) phase of a trace.
// Offsets are microseconds from the trace's start so a rendered trace
// reads as a timeline.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// SpanID indexes a span within its trace; -1 (from Begin on a nil trace)
// is ignored by End and SpanAttrInt.
type SpanID int

// Trace records one request's phases; the creator sets ID, Kind and
// Start. Exported fields are read by the debug endpoints after Finish;
// during recording they are guarded by mu.
type Trace struct {
	ID          uint64    `json:"id"`
	Kind        string    `json:"kind"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Start       time.Time `json:"start"`
	TotalUS     int64     `json:"total_us"`
	Error       string    `json:"error,omitempty"`
	Spans       []Span    `json:"spans"`
	Attrs       []Attr    `json:"attrs,omitempty"`

	mu sync.Mutex
}

// Begin opens a named span and returns its ID.
func (t *Trace) Begin(name string) SpanID {
	if t == nil {
		return -1
	}
	at := time.Since(t.Start).Microseconds()
	t.mu.Lock()
	id := SpanID(len(t.Spans))
	t.Spans = append(t.Spans, Span{Name: name, StartUS: at, DurUS: -1})
	t.mu.Unlock()
	return id
}

// End closes the span, recording its duration.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	at := time.Since(t.Start).Microseconds()
	t.mu.Lock()
	if int(id) < len(t.Spans) {
		sp := &t.Spans[id]
		sp.DurUS = at - sp.StartUS
	}
	t.mu.Unlock()
}

// SpanAttrInt attaches an integer key/value annotation to an open or
// closed span.
func (t *Trace) SpanAttrInt(id SpanID, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.Spans) {
		sp := &t.Spans[id]
		sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: strconv.FormatInt(v, 10)})
	}
	t.mu.Unlock()
}

// Annot attaches a trace-level key/value annotation.
func (t *Trace) Annot(key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Attrs = append(t.Attrs, Attr{Key: key, Val: val})
	t.mu.Unlock()
}

// Finish reads the clock once, stamps that reading as the total
// duration, closes any still-open spans, and returns it.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	total := time.Since(t.Start)
	at := total.Microseconds()
	t.mu.Lock()
	t.TotalUS = at
	for i := range t.Spans {
		if t.Spans[i].DurUS < 0 {
			t.Spans[i].DurUS = at - t.Spans[i].StartUS
		}
	}
	t.mu.Unlock()
	return total
}
