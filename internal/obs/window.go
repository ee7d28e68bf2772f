package obs

import (
	"slices"
	"time"
)

// quantileIndex returns the nearest-rank index of the p-quantile
// (0 < p <= 1) in n ascending-sorted samples; callers index their sorted
// slice with it.
func quantileIndex(n int, p float64) int {
	i := int(p*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Window is a sliding window over the most recent latencies, for exact
// nearest-rank percentiles — what an operator watching a live service
// wants: a process-lifetime p99 would never recover from one cold
// start. It serves both the per-endpoint windows of /stats and the
// per-fingerprint windows of the workload registry. Not synchronized;
// the owner's mutex guards it.
type Window struct {
	ring   []time.Duration
	idx    int
	filled bool
}

// NewWindow keeps the last n samples.
func NewWindow(n int) Window { return Window{ring: make([]time.Duration, n)} }

// Add records one sample, overwriting the oldest once the window is full.
func (w *Window) Add(d time.Duration) {
	w.ring[w.idx] = d
	w.idx++
	if w.idx == len(w.ring) {
		w.idx = 0
		w.filled = true
	}
}

// P50P99US returns the window's median and 99th percentile in
// microseconds (zeros while empty).
func (w *Window) P50P99US() (p50, p99 float64) {
	n := w.idx
	if w.filled {
		n = len(w.ring)
	}
	if n == 0 {
		return 0, 0
	}
	samples := slices.Clone(w.ring[:n])
	slices.Sort(samples)
	return float64(samples[quantileIndex(n, 0.50)].Microseconds()),
		float64(samples[quantileIndex(n, 0.99)].Microseconds())
}
