package obs

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// q builds a finished query record the way the spine hands one to the
// registry: fingerprint, id and outcome in the trace, the rest beside it.
func q(fp string, id uint64, latency time.Duration, r *Request) *Request {
	r.Fingerprint, r.ID, r.Elapsed = fp, id, latency
	return r
}

func obsFor(fp string, latency time.Duration) *Request {
	return q(fp, 7, latency, &Request{
		Query: "Q(x) :- " + fp + "(x).",
		Route: RoutePlanHit,
		Rows:  3,
	})
}

func TestWorkloadAggregates(t *testing.T) {
	w := NewWorkload(8)
	w.Observe(q("fpA", 1, 100*time.Microsecond, &Request{Query: "A", Route: RouteMiss, Rows: 10}))
	w.Observe(q("fpA", 2, 300*time.Microsecond, &Request{Route: RouteResultHit, Rows: 10}))
	failed := q("fpA", 3, 200*time.Microsecond, &Request{Route: RoutePlanHit})
	failed.Error = "boom"
	w.Observe(failed)
	cancelled := q("fpB", 0, 50*time.Microsecond, &Request{Route: RouteMiss, Cancelled: true})
	cancelled.Error = "context canceled"
	w.Observe(cancelled)
	w.Observe(&Request{}) // no fingerprint: dropped

	rows := w.TopK(SortCount, 0)
	if len(rows) != 2 {
		t.Fatalf("got %d fingerprints, want 2", len(rows))
	}
	a := rows[0]
	if a.Fingerprint != "fpA" || a.Count != 3 {
		t.Fatalf("top row: %+v", a)
	}
	if a.Query != "A" {
		t.Fatalf("sample query %q, want first-seen spelling", a.Query)
	}
	if a.Errors != 1 || a.Cancels != 0 {
		t.Fatalf("outcomes: %+v", a)
	}
	if a.Routes[RouteMiss] != 1 || a.Routes[RouteResultHit] != 1 || a.Routes[RoutePlanHit] != 1 {
		t.Fatalf("routes: %+v", a.Routes)
	}
	if a.TotalUS != 600 || a.AvgUS != 200 || a.MaxUS != 300 {
		t.Fatalf("latency aggregates: %+v", a)
	}
	if a.Rows != 20 {
		t.Fatalf("rows: %+v", a)
	}
	if a.LastTraceID != 3 {
		t.Fatalf("last trace id %d, want 3", a.LastTraceID)
	}

	b := rows[1]
	if b.Fingerprint != "fpB" || b.Cancels != 1 || b.Errors != 0 {
		t.Fatalf("second row: %+v", b)
	}

	tot := w.Totals()
	if tot.Observed != 4 || tot.Fingerprints != 2 {
		t.Fatalf("totals: %+v", tot)
	}
	if tot.ResultHits != 1 || tot.PlanHits != 1 || tot.Misses != 2 {
		t.Fatalf("route totals: %+v", tot)
	}
	if tot.Errors != 1 || tot.Cancels != 1 {
		t.Fatalf("outcome totals: %+v", tot)
	}
}

func TestWorkloadLRUEviction(t *testing.T) {
	w := NewWorkload(4)
	for i := 0; i < 6; i++ {
		w.Observe(obsFor(fmt.Sprintf("fp%d", i), time.Millisecond))
	}
	// fp0 and fp1 are the least recently observed: evicted.
	rows := w.TopK(SortCount, 0)
	if len(rows) != 4 {
		t.Fatalf("got %d fingerprints, want capacity 4", len(rows))
	}
	have := map[string]bool{}
	for _, r := range rows {
		have[r.Fingerprint] = true
	}
	for _, want := range []string{"fp2", "fp3", "fp4", "fp5"} {
		if !have[want] {
			t.Fatalf("missing %s in %v", want, have)
		}
	}
	if ev := w.Totals().Evictions; ev != 2 {
		t.Fatalf("evictions %d, want 2", ev)
	}

	// Re-observing fp2 makes it most recent; the next new fingerprint
	// evicts fp3 instead.
	w.Observe(obsFor("fp2", time.Millisecond))
	w.Observe(obsFor("fp6", time.Millisecond))
	rows = w.TopK(SortCount, 0)
	have = map[string]bool{}
	for _, r := range rows {
		have[r.Fingerprint] = true
	}
	if have["fp3"] || !have["fp2"] || !have["fp6"] {
		t.Fatalf("LRU order not respected: %v", have)
	}
}

// TestWorkloadQuantiles cross-checks the registry's p50/p99 against a
// brute-force recompute over the same samples — exact while the sample
// count stays inside the ring window, windowed (most recent
// fpSampleWindow samples) beyond it.
func TestWorkloadQuantiles(t *testing.T) {
	for _, n := range []int{1, 2, 10, fpSampleWindow, fpSampleWindow + 57} {
		w := NewWorkload(4)
		latencies := make([]time.Duration, n)
		for i := range latencies {
			// Deterministic, unsorted spread.
			latencies[i] = time.Duration((i*7919)%(n*13)+1) * time.Microsecond
			w.Observe(q("fp", 0, latencies[i], &Request{}))
		}
		window := latencies
		if n > fpSampleWindow {
			window = latencies[n-fpSampleWindow:]
		}
		sorted := append([]time.Duration(nil), window...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		wantP50 := float64(sorted[quantileIndex(len(sorted), 0.50)].Microseconds())
		wantP99 := float64(sorted[quantileIndex(len(sorted), 0.99)].Microseconds())

		rows := w.TopK(SortCount, 1)
		if len(rows) != 1 {
			t.Fatalf("n=%d: got %d rows", n, len(rows))
		}
		if rows[0].P50US != wantP50 || rows[0].P99US != wantP99 {
			t.Fatalf("n=%d: p50=%g p99=%g, want p50=%g p99=%g",
				n, rows[0].P50US, rows[0].P99US, wantP50, wantP99)
		}
	}
}

func TestWorkloadTopKSort(t *testing.T) {
	w := NewWorkload(8)
	w.Observe(q("many", 0, time.Microsecond, &Request{Rows: 1}))
	w.Observe(q("many", 0, time.Microsecond, &Request{Rows: 1}))
	w.Observe(q("many", 0, time.Microsecond, &Request{Rows: 1}))
	w.Observe(q("slow", 0, time.Second, &Request{Rows: 2}))
	w.Observe(q("wide", 0, time.Microsecond, &Request{Rows: 1000}))

	if rows := w.TopK(SortCount, 1); rows[0].Fingerprint != "many" {
		t.Fatalf("count sort: %+v", rows[0])
	}
	if rows := w.TopK(SortLatency, 1); rows[0].Fingerprint != "slow" {
		t.Fatalf("latency sort: %+v", rows[0])
	}
	if rows := w.TopK(SortRows, 1); rows[0].Fingerprint != "wide" {
		t.Fatalf("rows sort: %+v", rows[0])
	}
	if rows := w.TopK(SortCount, 2); len(rows) != 2 {
		t.Fatalf("k=2 returned %d rows", len(rows))
	}
}

// TestWorkloadConcurrent hammers one registry from many goroutines
// (exercised under -race in CI) and checks nothing is lost.
func TestWorkloadConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 500
	w := NewWorkload(16) // smaller than the fingerprint space: eviction races too
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fp := fmt.Sprintf("fp%d", (g*perG+i)%24)
				w.Observe(obsFor(fp, time.Duration(i)*time.Microsecond))
				if i%17 == 0 {
					w.TopK(SortLatency, 5)
					w.Totals()
				}
			}
		}(g)
	}
	wg.Wait()
	tot := w.Totals()
	if tot.Observed != goroutines*perG {
		t.Fatalf("observed %d, want %d", tot.Observed, goroutines*perG)
	}
	if tot.Fingerprints != 16 {
		t.Fatalf("fingerprints %d, want capacity 16", tot.Fingerprints)
	}
	var count int64
	for _, r := range w.TopK(SortCount, 0) {
		count += r.Count
	}
	if count > goroutines*perG {
		t.Fatalf("retained count %d exceeds observed %d", count, goroutines*perG)
	}
}
