package server

import (
	"sync"
	"time"

	"emptyheaded/internal/obs"
)

// latencyWindow aggregates request latencies for one endpoint: exact
// count/error/sum/max over the process lifetime plus a sliding window
// of the last windowSize observations for p50/p99.
type latencyWindow struct {
	mu     sync.Mutex
	count  int64
	errors int64
	sum    time.Duration
	max    time.Duration
	recent obs.Window
}

const windowSize = 2048

func (l *latencyWindow) observe(d time.Duration, isErr bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	if isErr {
		l.errors++
	}
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.recent.Add(d)
}

// EndpointStats is the JSON rendering of one endpoint's counters.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	AvgUS    float64 `json:"avg_us"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
	MaxUS    float64 `json:"max_us"`
}

func (l *latencyWindow) snapshot() EndpointStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := EndpointStats{Requests: l.count, Errors: l.errors}
	if l.count == 0 {
		return s
	}
	s.AvgUS = float64(l.sum.Microseconds()) / float64(l.count)
	s.MaxUS = float64(l.max.Microseconds())
	s.P50US, s.P99US = l.recent.P50P99US()
	return s
}
