package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRingAddGetEvict(t *testing.T) {
	g := newRing(3)
	for i := uint64(1); i <= 5; i++ {
		r := &Request{}
		r.ID = i
		g.add(r)
	}
	for _, gone := range []uint64{1, 2} {
		if _, ok := g.Get(gone); ok {
			t.Fatalf("record %d should have been evicted", gone)
		}
	}
	for i := uint64(3); i <= 5; i++ {
		if r, ok := g.Get(i); !ok || r.ID != i {
			t.Fatalf("record %d: got %+v, ok=%v", i, r, ok)
		}
	}
	// Newest first: IDs 5, 4, 3.
	recent := g.Recent(0)
	if len(recent) != 3 || recent[0].ID != 5 || recent[2].ID != 3 {
		t.Fatalf("recent (newest first): %+v", recent)
	}
	if got := g.Recent(2); len(got) != 2 || got[0].ID != 5 {
		t.Fatalf("recent(2) = %v", got)
	}
	if st := g.Stats(); st.Capacity != 3 || st.Retained != 3 || st.Total != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRingKeepsLateFinisher: ids are handed out at Start, the ring files
// at Finish — an old id finishing after younger ones stays resolvable.
func TestRingKeepsLateFinisher(t *testing.T) {
	s := NewSpine(nil, 0)
	slow := s.Start("query", "slow")
	for i := 0; i < ringSize-1; i++ {
		s.Finish(s.Start("query", "fast"))
	}
	s.Finish(slow)
	if got, ok := s.Ring.Get(slow.ID); !ok || got != slow {
		t.Fatalf("late finisher %d not retained", slow.ID)
	}
	if s.Ring.Recent(1)[0] != slow {
		t.Fatal("late finisher is not the newest record")
	}
	if st := s.Ring.Stats(); st.Retained != ringSize || st.Total != ringSize {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSpineFinishFansOut: one Finish feeds every consumer from the one
// record, with one clock reading shared by all of them.
func TestSpineFinishFansOut(t *testing.T) {
	var sink bytes.Buffer
	s := NewSpine(NewEventLog(&sink), time.Nanosecond)
	s.Register("query")
	s.Register("update")
	r := s.Start("query", "Q")
	tr := &r.Trace
	sp := tr.Begin("execute")
	bag := tr.Begin("bag 0") // nested: not a phase
	time.Sleep(time.Millisecond)
	tr.End(bag)
	tr.End(sp)
	open := tr.Begin("render") // left open: Stop closes it
	r.Fingerprint, r.Route, r.Rows = "fp", RoutePlanHit, 4
	r.Lineage = &Lineage{TraceID: r.ID, Fingerprint: "fp", Cardinality: 4, Relations: []RelLineage{{Relation: "Edge", Epoch: 2}}}

	elapsed := r.Stop()
	s.Finish(r)
	if r.Stop() != elapsed || r.Elapsed != elapsed || r.TotalUS != elapsed.Microseconds() {
		t.Fatalf("clock read more than once: stop=%v elapsed=%v total_us=%d", elapsed, r.Elapsed, r.TotalUS)
	}
	if r.Spans[open].DurUS < 0 {
		t.Fatal("open span not closed")
	}
	if len(r.PhasesUS) != 2 || r.PhasesUS["execute"] < 1000 {
		t.Fatalf("phases: %v", r.PhasesUS)
	}

	if got, ok := s.Ring.Get(r.ID); !ok || got != r {
		t.Fatal("record not in the ring")
	}
	_, rows := Profile(s.Ring.Recent(0), SortCount, 0)
	if len(rows) != 1 || rows[0].LastTraceID != r.ID || rows[0].TotalUS != elapsed.Microseconds() ||
		rows[0].Routes[RoutePlanHit] != 1 || rows[0].PhasesUS["execute"] != r.PhasesUS["execute"] {
		t.Fatalf("workload row: %+v", rows)
	}
	q, ex := s.Kinds["query"].Latency.Snapshot(), s.Phases["execute"].Snapshot()
	if q.Count != 1 || ex.Count != 1 || s.Kinds["update"].Latency.Snapshot().Count != 0 {
		t.Fatalf("histograms: query=%d execute=%d", q.Count, ex.Count)
	}
	if s.Routes[RoutePlanHit].Load() != 1 || s.Routes[RouteMiss].Load() != 0 || s.Kinds["query"].Errors.Load() != 0 {
		t.Fatalf("counters: plan hits %d, misses %d, errors %d",
			s.Routes[RoutePlanHit].Load(), s.Routes[RouteMiss].Load(), s.Kinds["query"].Errors.Load())
	}
	events := sink.String()
	for _, want := range []string{`"kind":"query_provenance"`, `"kind":"slow_query"`, `"phases_us":{`} {
		if !strings.Contains(events, want) {
			t.Fatalf("events missing %s:\n%s", want, events)
		}
	}
	if strings.Index(events, "query_provenance") > strings.Index(events, "slow_query") {
		t.Fatalf("execution's lineage must precede its slow_query line:\n%s", events)
	}

	// A result-cache hit points at the fill's lineage; the wire view
	// re-labels it without touching (or copying) the shared value.
	hit := s.Start("query", "Q")
	hit.Fingerprint, hit.Route, hit.Cached, hit.Lineage = "fp", RouteResultHit, true, r.Lineage
	s.Finish(hit)
	v := hit.Provenance()
	if !v.Cached || v.TraceID != hit.ID || &v.Relations[0] != &r.Lineage.Relations[0] {
		t.Fatalf("hit view: %+v", v)
	}
	if r.Lineage.Cached || r.Lineage.TraceID != r.ID || r.Provenance() != r.Lineage {
		t.Fatalf("fill lineage mutated: %+v", r.Lineage)
	}
	if n := strings.Count(sink.String(), "query_provenance"); n != 1 {
		t.Fatalf("cached serve re-emitted lineage: %d events", n)
	}
	if s.CacheAge.Snapshot().Count != 1 {
		t.Fatal("hit did not book the entry's age")
	}
}
