package obs

// Fixed-bucket latency histograms in the Prometheus cumulative style,
// as the server exposes them over /metrics. The stdlib-only constraint
// rules out the official client library; the exposition format (text
// version 0.0.4) is small enough to render by hand.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Bucket presets. Bounds are upper limits in seconds, ascending. The
// spreads roughly follow the Prometheus defaults, shifted to the ranges
// the engine actually occupies.
var (
	// LatencyBuckets covers query/update request latency: 100µs .. 10s.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// FsyncBuckets covers WAL fsync latency: 10µs .. 250ms.
	FsyncBuckets = []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.25,
	}
	// AgeBuckets covers result-cache entry age at hit time: 1ms .. 1h.
	AgeBuckets = []float64{0.001, 0.01, 0.1, 1, 5, 15, 60, 300, 900, 3600}
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe. The
// per-bucket counts are plain (non-cumulative); rendering accumulates
// them into the Prometheus `le` form. One extra bucket holds +Inf.
type Histogram struct {
	bounds   []float64 // upper bounds in seconds, ascending
	counts   []atomic.Uint64
	sumNanos atomic.Uint64
	total    atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (seconds). The bounds slice is not copied and must not be mutated.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
	h.total.Add(1)
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// rendering and JSON stats. Counts are per-bucket (non-cumulative), with
// the final entry counting observations above the last bound (+Inf bucket).
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds_s,omitempty"`
	Counts     []uint64  `json:"counts,omitempty"`
	SumSeconds float64   `json:"sum_s"`
	Count      uint64    `json:"count"`
}

// Snapshot copies the current state. Individual loads are atomic but the
// set is not taken under a lock; concurrent observers can skew a bucket
// by a count or two, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Counts:     make([]uint64, len(h.counts)),
		SumSeconds: float64(h.sumNanos.Load()) / 1e9,
		Count:      h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// WriteProm renders one series of a histogram family (after the
// caller's HELP/TYPE preamble) in the Prometheus text format: cumulative
// `_bucket{le=...}` lines, then `_sum` and `_count`. labels is the inner label list without braces (e.g.
// `phase="execute"`) or "" for an unlabeled series.
func (s HistogramSnapshot) WriteProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	if n := len(s.Bounds); n < len(s.Counts) {
		cum += s.Counts[n]
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.SumSeconds, name, s.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, s.SumSeconds, name, labels, s.Count)
	}
}
