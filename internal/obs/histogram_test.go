package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0 (<=1ms)
	h.Observe(1 * time.Millisecond)   // bucket 0 (boundary is inclusive)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(2 * time.Second)        // +Inf bucket
	h.Observe(-time.Second)           // clamped to 0, bucket 0

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	want := []uint64{3, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	wantSum := 0.0005 + 0.001 + 0.005 + 0.05 + 2
	if s.SumSeconds < wantSum-1e-6 || s.SumSeconds > wantSum+1e-6 {
		t.Fatalf("sum = %g, want %g", s.SumSeconds, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8*per {
		t.Fatalf("count = %d, want %d", s.Count, 8*per)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestWriteProm(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Second)

	var sb strings.Builder
	h.Snapshot().WriteProm(&sb, "test_seconds", "")
	text := sb.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.001"} 1`,
		`test_seconds_bucket{le="0.01"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}

	// Labeled series get the label spliced before le and onto _sum/_count.
	sb.Reset()
	h.Snapshot().WriteProm(&sb, "test_seconds", `phase="x"`)
	text = sb.String()
	for _, want := range []string{
		`test_seconds_bucket{phase="x",le="+Inf"} 3`,
		`test_seconds_count{phase="x"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot count = %d", s.Count)
	}
}
