package obs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// q builds a finished query record the way the spine retains one:
// fingerprint, id and outcome in the trace, the rest beside it.
func q(fp string, id uint64, latency time.Duration, r *Request) *Request {
	r.Kind, r.Fingerprint, r.ID, r.Elapsed = "query", fp, id, latency
	return r
}

// newestFirst orders records the way Ring.Recent returns them.
func newestFirst(recs ...*Request) []*Request {
	slices.Reverse(recs)
	return recs
}

func TestWorkloadAggregates(t *testing.T) {
	t0 := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	first := q("fpA", 1, 100*time.Microsecond, &Request{Query: "A", Route: RouteMiss, Rows: 10})
	first.Start = t0
	hit := q("fpA", 2, 300*time.Microsecond, &Request{Route: RouteResultHit, Rows: 10})
	failed := q("fpA", 3, 200*time.Microsecond, &Request{Route: RoutePlanHit})
	failed.Error, failed.Start = "boom", t0.Add(time.Second)
	failed.Lineage = &Lineage{TraceID: 3, Fingerprint: "fpA"}
	cancelled := q("fpB", 4, 50*time.Microsecond, &Request{Route: RouteMiss, Cancelled: true})
	cancelled.Error = "context canceled"
	audit := q("fpA", 5, time.Microsecond, &Request{})
	audit.Kind = "audit" // not a query: skipped
	tot, rows := Profile(newestFirst(first, hit, failed, cancelled, &Request{}, audit), SortCount, 0)

	if len(rows) != 2 {
		t.Fatalf("got %d fingerprints, want 2", len(rows))
	}
	a := rows[0]
	if a.Fingerprint != "fpA" || a.Count != 3 {
		t.Fatalf("top row: %+v", a)
	}
	if a.Query != "A" {
		t.Fatalf("sample query %q, want the oldest spelling", a.Query)
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
	if a.LastTraceID != 3 || a.Provenance != failed.Lineage {
		t.Fatalf("last trace id %d, provenance %+v: want the newest record's", a.LastTraceID, a.Provenance)
	}
	if want := t0.Add(100 * time.Microsecond).Format(time.RFC3339Nano); a.FirstSeen != want {
		t.Fatalf("first seen %s, want %s", a.FirstSeen, want)
	}
	if want := t0.Add(time.Second + 200*time.Microsecond).Format(time.RFC3339Nano); a.LastSeen != want {
		t.Fatalf("last seen %s, want %s", a.LastSeen, want)
	}

	b := rows[1]
	if b.Fingerprint != "fpB" || b.Cancels != 1 || b.Errors != 0 || b.Routes[RouteMiss] != 1 {
		t.Fatalf("second row: %+v", b)
	}

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

// TestWorkloadRetainedOnly: the profile covers the records the ring
// still holds, and nothing the ring has dropped.
func TestWorkloadRetainedOnly(t *testing.T) {
	s := NewSpine(nil, 0)
	const extra = 40
	for i := range ringSize + extra {
		r := s.Start("query", "Q")
		r.Fingerprint, r.Route = fmt.Sprintf("fp%d", i%(2*extra)), RouteMiss
		s.Finish(r)
	}
	tot, rows := Profile(s.Ring.Recent(0), SortCount, 0)
	if tot.Observed != ringSize || tot.Misses != ringSize {
		t.Fatalf("profile observed %d (misses %d), want the %d retained records", tot.Observed, tot.Misses, ringSize)
	}
	var count int64
	for _, r := range rows {
		count += r.Count
		if _, ok := s.Ring.Get(r.LastTraceID); !ok {
			t.Fatalf("row %s names record %d, which is not retained", r.Fingerprint, r.LastTraceID)
		}
	}
	if count != ringSize || tot.Fingerprints != len(rows) || len(rows) != 2*extra {
		t.Fatalf("rows sum to %d over %d fingerprints (totals %+v)", count, len(rows), tot)
	}
	if got := s.Routes[RouteMiss].Load(); got != ringSize+extra {
		t.Fatalf("lifetime miss counter %d, want every record's %d", got, ringSize+extra)
	}
}

// TestWorkloadQuantiles cross-checks Quantiles and a profile row's
// p50/p99 against nearest rank found by brute force: the smallest
// sample that at least pct percent of the samples do not exceed.
func TestWorkloadQuantiles(t *testing.T) {
	nearest := func(ds []time.Duration, pct int) float64 {
		best := time.Duration(-1)
		for _, v := range ds {
			le := 0
			for _, w := range ds {
				if w <= v {
					le++
				}
			}
			if 100*le >= pct*len(ds) && (best < 0 || v < best) {
				best = v
			}
		}
		return float64(best.Microseconds())
	}
	if p50, p99, mx := Quantiles(nil); p50 != 0 || p99 != 0 || mx != 0 {
		t.Fatalf("empty: %g %g %g", p50, p99, mx)
	}
	for _, n := range []int{1, 2, 3, 10, 100, 170, ringSize} {
		lats := make([]time.Duration, n)
		recs := make([]*Request, n)
		for i := range lats {
			// Deterministic, unsorted spread.
			lats[i] = time.Duration((i*7919)%(n*13)+1) * time.Microsecond
			recs[i] = q("fp", uint64(i+1), lats[i], &Request{})
		}
		wantP50, wantP99, wantMax := nearest(lats, 50), nearest(lats, 99), nearest(lats, 100)
		_, rows := Profile(recs, SortCount, 1)
		if len(rows) != 1 || rows[0].P50US != wantP50 || rows[0].P99US != wantP99 || float64(rows[0].MaxUS) != wantMax {
			t.Fatalf("n=%d: row %+v, want p50=%g p99=%g max=%g", n, rows, wantP50, wantP99, wantMax)
		}
		if p50, p99, mx := Quantiles(lats); p50 != wantP50 || p99 != wantP99 || mx != wantMax {
			t.Fatalf("n=%d: Quantiles %g %g %g, want %g %g %g", n, p50, p99, mx, wantP50, wantP99, wantMax)
		}
	}
}

func TestWorkloadTopKSort(t *testing.T) {
	recs := newestFirst(
		q("many", 1, time.Microsecond, &Request{Rows: 1}),
		q("many", 2, time.Microsecond, &Request{Rows: 1}),
		q("many", 3, time.Microsecond, &Request{Rows: 1}),
		q("slow", 4, time.Second, &Request{Rows: 2}),
		q("wide", 5, time.Microsecond, &Request{Rows: 1000}),
	)
	if _, rows := Profile(recs, SortCount, 1); rows[0].Fingerprint != "many" {
		t.Fatalf("count sort: %+v", rows[0])
	}
	if _, rows := Profile(recs, SortLatency, 1); rows[0].Fingerprint != "slow" {
		t.Fatalf("latency sort: %+v", rows[0])
	}
	if _, rows := Profile(recs, SortRows, 1); rows[0].Fingerprint != "wide" {
		t.Fatalf("rows sort: %+v", rows[0])
	}
	if tot, rows := Profile(recs, SortCount, 2); len(rows) != 2 || tot.Fingerprints != 3 || tot.Observed != 5 {
		t.Fatalf("k=2 returned %d rows, totals %+v", len(rows), tot)
	}
}

// TestWorkloadConcurrent finishes records from many goroutines while
// others read the profile (exercised under -race in CI) and checks the
// lifetime counters lose nothing and the profile covers the ring.
func TestWorkloadConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 500
	s := NewSpine(nil, 0)
	s.Register("query")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := s.Start("query", "Q")
				r.Fingerprint, r.Route, r.Rows = fmt.Sprintf("fp%d", (g*perG+i)%24), RoutePlanHit, 3
				s.Finish(r)
				if i%17 == 0 {
					Profile(s.Ring.Recent(0), SortLatency, 5)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Routes[RoutePlanHit].Load(); got != goroutines*perG {
		t.Fatalf("plan-hit counter %d, want %d", got, goroutines*perG)
	}
	if got := s.Kinds["query"].Latency.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("query histogram %d, want %d", got, goroutines*perG)
	}
	tot, rows := Profile(s.Ring.Recent(0), SortCount, 0)
	var count int64
	for _, r := range rows {
		count += r.Count
	}
	if tot.Observed != ringSize || count != ringSize || tot.PlanHits != ringSize {
		t.Fatalf("profile observed %d, rows sum to %d; want the %d retained", tot.Observed, count, ringSize)
	}
}
