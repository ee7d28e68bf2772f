package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/wal"
)

// queryWithProv posts a /query with the provenance flag set.
func queryWithProv(t *testing.T, base, query string) QueryResponse {
	t.Helper()
	var qr QueryResponse
	code, body := postJSON(t, base+"/query", QueryRequest{Query: query, Provenance: true}, &qr)
	if code != http.StatusOK {
		t.Fatalf("/query %q: status %d, body %s", query, code, body)
	}
	return qr
}

func TestProvenanceInlineAndRing(t *testing.T) {
	s, ts := newTestService(t, Config{})

	// First execution: a miss, so the record describes a fresh run.
	qr1 := queryWithProv(t, ts.URL, triangleQ)
	rec := qr1.Provenance
	if rec == nil {
		t.Fatal("provenance requested but absent")
	}
	if rec.TraceID != qr1.TraceID || rec.Cached || rec.Fingerprint == "" {
		t.Fatalf("miss record: %+v", rec)
	}
	// The read set includes head shadows (epoch 0); the real relation
	// must carry a live epoch.
	edgeIdx := -1
	for i, rl := range rec.Relations {
		if rl.Relation == "Edge" {
			edgeIdx = i
		}
	}
	if edgeIdx < 0 || rec.Relations[edgeIdx].Epoch == 0 {
		t.Fatalf("lineage: %+v", rec.Relations)
	}

	// Cached serve: the fill-time record re-stamped with this trace.
	qr2 := queryWithProv(t, ts.URL, triangleQ)
	if !qr2.ResultCached || qr2.Provenance == nil {
		t.Fatalf("cached serve: %+v", qr2)
	}
	if !qr2.Provenance.Cached || qr2.Provenance.TraceID != qr2.TraceID {
		t.Fatalf("serve record not re-stamped: %+v", qr2.Provenance)
	}
	if qr2.Provenance.Relations[edgeIdx] != rec.Relations[edgeIdx] {
		t.Fatalf("serve lineage diverges from fill lineage: %+v vs %+v",
			qr2.Provenance.Relations[edgeIdx], rec.Relations[edgeIdx])
	}

	// A request without the flag executes with provenance recorded but
	// not attached.
	if qr := runQuery(t, ts.URL, pathQ); qr.Provenance != nil {
		t.Fatalf("unrequested provenance attached: %+v", qr.Provenance)
	}

	// /debug/trace/<id> carries the same lineage the reply did, and an
	// unknown id is a 404.
	var trOut struct {
		ID         uint64       `json:"id"`
		Provenance *obs.Lineage `json:"provenance"`
	}
	for _, qr := range []QueryResponse{qr1, qr2} {
		trOut.Provenance = nil
		if code := getJSON(t, fmt.Sprintf("%s/debug/trace/%d", ts.URL, qr.TraceID), &trOut); code != http.StatusOK {
			t.Fatalf("/debug/trace/%d: %d", qr.TraceID, code)
		}
		want := *qr.Provenance
		if trOut.ID != qr.TraceID || trOut.Provenance == nil {
			t.Fatalf("trace %d without lineage: %+v", qr.TraceID, trOut)
		}
		got := *trOut.Provenance
		if !got.At.Equal(want.At) {
			t.Fatalf("trace lineage time %v, reply's %v", got.At, want.At)
		}
		got.At = want.At
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace lineage %+v\nis not the reply's %+v", got, want)
		}
	}
	var errBody map[string]any
	if code := getJSON(t, ts.URL+"/debug/trace/999999999", &errBody); code != http.StatusNotFound || errBody["error"] == nil {
		t.Fatalf("unknown id: %d %v", code, errBody)
	}

	// /debug/workload links each fingerprint's newest retained record.
	var wl struct {
		Fingerprints []struct {
			Fingerprint string       `json:"fingerprint"`
			Provenance  *obs.Lineage `json:"provenance"`
		} `json:"fingerprints"`
	}
	getJSON(t, ts.URL+"/debug/workload", &wl)
	found := false
	for _, row := range wl.Fingerprints {
		if row.Fingerprint == rec.Fingerprint {
			found = true
			if row.Provenance == nil {
				t.Fatalf("workload row without provenance: %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("fingerprint missing from workload: %+v", wl)
	}

	// /stats reports the section.
	st := s.StatsSnapshot()
	if !st.Provenance.Enabled || st.Provenance.Ring.Total < 3 {
		t.Fatalf("stats provenance: %+v", st.Provenance)
	}
}

// TestProvenanceDiffWhyChanged: two executions of the same fingerprint
// straddling an update differ in exactly the updated relation's lineage.
func TestProvenanceDiffWhyChanged(t *testing.T) {
	_, ts := newTestService(t, Config{})

	qr1 := queryWithProv(t, ts.URL, triangleQ)
	if code, body := postJSON(t, ts.URL+"/update", UpdateRequest{
		Name:    "Edge",
		Inserts: [][]uint32{{200, 201}, {201, 202}, {200, 202}},
	}, nil); code != http.StatusOK {
		t.Fatalf("/update: %d %s", code, body)
	}
	qr2 := queryWithProv(t, ts.URL, triangleQ)
	if qr2.ResultCached {
		t.Fatalf("epoch bump should invalidate the cache: %+v", qr2)
	}
	from, to := qr1.Provenance, qr2.Provenance
	if from.Fingerprint != to.Fingerprint || from.Generation != to.Generation || len(from.Relations) != len(to.Relations) {
		t.Fatalf("lineages not comparable: %+v vs %+v", from, to)
	}
	drifted := 0
	for i, a := range from.Relations {
		b := to.Relations[i]
		if a == b {
			continue
		}
		drifted++
		if b.Relation != "Edge" || b.Epoch != a.Epoch+1 {
			t.Fatalf("drift %+v -> %+v, want Edge's epoch +1", a, b)
		}
		// The overlay's growth attributes the change; the test service
		// runs without a WAL, so the lineage is epoch-only.
		if b.OverlayRows-a.OverlayRows != 3 || a.WALSeq != 0 || b.WALSeq != 0 {
			t.Fatalf("overlay attribution %+v -> %+v", a, b)
		}
	}
	if drifted != 1 {
		t.Fatalf("%d relations drifted, want 1: %+v vs %+v", drifted, from.Relations, to.Relations)
	}
}

// TestAuditCatchesFaultInjectedStaleEntry is the auditor's reason to
// exist, end to end: a fault-injected epoch skew plants a cache entry
// whose validity stamp lies, one real update makes the lie current, the
// cache serves stale bytes — and the on-demand audit sweep detects it,
// emits exactly one audit_mismatch event, bumps eh_audit_mismatch_total,
// evicts the entry, and the next request recomputes correctly.
func TestAuditCatchesFaultInjectedStaleEntry(t *testing.T) {
	restore := fault.Enable(fault.New(1, fault.Rule{
		Point: "server.cache.stamp", Kind: fault.Err, OnCall: 1,
	}))
	defer restore()
	sink := &syncWriter{}
	_, ts := newTestService(t, Config{Events: obs.NewEventLog(sink)})

	// Fill the cache through the armed fault: the entry's epoch stamp is
	// one ahead of the truth.
	qr1 := runQuery(t, ts.URL, triangleQ)
	if qr1.Scalar == nil {
		t.Fatalf("triangle scalar: %+v", qr1)
	}
	base := *qr1.Scalar

	// One real update catches the actual epoch up to the lying stamp and
	// closes a new triangle (codes 200-202 are fresh vertices): the
	// cached count is now stale by 6 ordered bindings.
	if code, body := postJSON(t, ts.URL+"/update", UpdateRequest{
		Name: "Edge",
		Inserts: [][]uint32{
			{200, 201}, {201, 202}, {200, 202},
			{201, 200}, {202, 201}, {202, 200},
		},
	}, nil); code != http.StatusOK {
		t.Fatalf("/update: %d %s", code, body)
	}

	// The lie holds: the entry passes its freshness check and the stale
	// count is served from cache.
	qr2 := runQuery(t, ts.URL, triangleQ)
	if !qr2.ResultCached || *qr2.Scalar != base {
		t.Fatalf("expected stale cached serve: cached=%v scalar=%v (base %v)",
			qr2.ResultCached, *qr2.Scalar, base)
	}

	// The sweep re-executes and catches it.
	var audit struct {
		Checked      int      `json:"checked"`
		SkippedStale int      `json:"skipped_stale"`
		Mismatches   int      `json:"mismatches"`
		Evicted      []string `json:"evicted"`
		Errors       int      `json:"errors"`
	}
	if code, body := postJSON(t, ts.URL+"/debug/audit", nil, &audit); code != http.StatusOK {
		t.Fatalf("/debug/audit: %d %s", code, body)
	}
	if audit.Mismatches != 1 || len(audit.Evicted) != 1 || audit.Errors != 0 {
		t.Fatalf("audit sweep: %+v", audit)
	}

	// Exactly one audit_mismatch event, carrying the drift attribution.
	events := sink.String()
	if n := strings.Count(events, `"kind":"audit_mismatch"`); n != 1 {
		t.Fatalf("audit_mismatch events: %d in\n%s", n, events)
	}
	for _, line := range strings.Split(strings.TrimSpace(events), "\n") {
		if !strings.Contains(line, `"kind":"audit_mismatch"`) {
			continue
		}
		var ev struct {
			CachedCardinality int `json:"cached_cardinality"`
			CardinalityDelta  int `json:"cardinality_delta"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line: %v (%s)", err, line)
		}
	}

	// The counter is on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricsBody), "eh_audit_mismatch_total 1") {
		t.Fatalf("/metrics missing eh_audit_mismatch_total 1")
	}

	// The entry is gone: the next request recomputes and sees the new
	// triangle (6 ordered bindings on a complete directed 3-cycle).
	qr3 := runQuery(t, ts.URL, triangleQ)
	if qr3.ResultCached {
		t.Fatalf("evicted entry still serving: %+v", qr3)
	}
	if *qr3.Scalar != base+6 {
		t.Fatalf("recomputed count %v, want %v", *qr3.Scalar, base+6)
	}

	// A follow-up sweep over the now-correct cache finds nothing.
	if code, _ := postJSON(t, ts.URL+"/debug/audit", nil, &audit); code != http.StatusOK || audit.Mismatches != 0 {
		t.Fatalf("clean sweep: %+v", audit)
	}
}

// TestAuditSamplerRuns: with AuditFraction 1 every cached serve queues a
// background audit; a fresh entry audits clean, and an entry whose stamp
// was made to lie audits dirty with an audit_mismatch event that carries
// the fill-time lineage and a trace id /debug/trace resolves.
func TestAuditSamplerRuns(t *testing.T) {
	sink := &syncWriter{}
	s, ts := newTestService(t, Config{AuditFraction: 1, Events: obs.NewEventLog(sink)})
	// eventually polls cond until it holds: sampled audits run in the
	// background.
	eventually := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened: %+v", what, s.StatsSnapshot().Provenance.Audit)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	runQuery(t, ts.URL, triangleQ)
	runQuery(t, ts.URL, triangleQ) // cached serve → sampled
	eventually("a sampled audit", func() bool { return s.StatsSnapshot().Provenance.Audit.Checks >= 1 })
	if st := s.StatsSnapshot().Provenance.Audit; st.Mismatches != 0 || st.Errors != 0 || st.Sampled < 1 {
		t.Fatalf("fresh entry audited dirty: %+v", st)
	}

	// Plant a lying stamp (see TestAuditCatchesFaultInjectedStaleEntry),
	// make it current with one update, and let a cached serve sample it.
	restore := fault.Enable(fault.New(1, fault.Rule{
		Point: "server.cache.stamp", Kind: fault.Err, OnCall: 1,
	}))
	defer restore()
	fill := queryWithProv(t, ts.URL, degreeQ)
	if code, body := postJSON(t, ts.URL+"/update", UpdateRequest{
		Name: "Edge", Inserts: [][]uint32{{200, 201}, {201, 202}},
	}, nil); code != http.StatusOK {
		t.Fatalf("/update: %d %s", code, body)
	}
	if qr := runQuery(t, ts.URL, degreeQ); !qr.ResultCached {
		t.Fatalf("expected the stale entry to serve: %+v", qr)
	}
	eventually("an audit_mismatch event", func() bool { return strings.Contains(sink.String(), `"kind":"audit_mismatch"`) })

	var ev struct {
		TraceID           uint64       `json:"trace_id"`
		Fingerprint       string       `json:"fingerprint"`
		CachedCardinality int          `json:"cached_cardinality"`
		ActualCardinality int          `json:"actual_cardinality"`
		Lineage           *obs.Lineage `json:"lineage"`
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	n := 0
	for _, line := range lines {
		if strings.Contains(line, `"kind":"audit_mismatch"`) {
			n++
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("event line: %v (%s)", err, line)
			}
		}
	}
	if n != 1 {
		t.Fatalf("audit_mismatch events: %d in\n%s", n, sink.String())
	}
	want := fill.Provenance
	if ev.Fingerprint != want.Fingerprint || ev.CachedCardinality != fill.Cardinality ||
		ev.ActualCardinality != fill.Cardinality+2 {
		t.Fatalf("event body: %+v (fill %+v)", ev, fill)
	}
	if ev.Lineage == nil || ev.Lineage.TraceID != fill.TraceID || !reflect.DeepEqual(ev.Lineage.Relations, want.Relations) {
		t.Fatalf("event lineage %+v, want the fill's %+v", ev.Lineage, want)
	}
	var tr struct {
		ID         uint64       `json:"id"`
		Kind       string       `json:"kind"`
		Provenance *obs.Lineage `json:"provenance"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/debug/trace/%d", ts.URL, ev.TraceID), &tr); code != http.StatusOK {
		t.Fatalf("/debug/trace/%d: %d", ev.TraceID, code)
	}
	if tr.ID != ev.TraceID || tr.Kind != "audit" || tr.Provenance == nil ||
		tr.Provenance.Cardinality != ev.ActualCardinality {
		t.Fatalf("audit trace: %+v", tr)
	}
}

// TestLineageFromFork: a query's lineage is read from the fork it ran
// on. An /update to its read set that lands while the query executes
// moves the live relation, not the reply: the reply's wal_seq and
// overlay_gen are the ones that go with its epoch — the pre-update
// values — and the next execution sees the update's.
func TestLineageFromFork(t *testing.T) {
	eng := core.New()
	if err := eng.AddRelationColumns("Edge", [][]uint32{{0, 1, 0}, {1, 2, 2}}, nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenWAL(core.WALConfig{Dir: t.TempDir(), Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{Workers: 4}).Handler())
	defer ts.Close()
	update := func(row []uint32) {
		t.Helper()
		if code, body := postJSON(t, ts.URL+"/update", UpdateRequest{Name: "Edge", Inserts: [][]uint32{row}}, nil); code != http.StatusOK {
			t.Fatalf("/update: %d %s", code, body)
		}
	}
	edge := func(lin *obs.Lineage) obs.RelLineage {
		t.Helper()
		for _, rl := range lin.Relations {
			if rl.Relation == "Edge" {
				return rl
			}
		}
		t.Fatalf("Edge missing from lineage %+v", lin)
		return obs.RelLineage{}
	}
	update([]uint32{2, 3}) // seq 1, overlay generation 1
	epoch := eng.DB.EpochOf("Edge")

	// Hold the query in its first worker block, after its fork.
	in := fault.New(35, fault.Rule{Point: "exec.worker", Kind: fault.Latency, OnCall: 1, Sleep: 400 * time.Millisecond})
	restore := fault.Enable(in)
	defer restore()
	body, err := json.Marshal(QueryRequest{Query: triangleQ, Provenance: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	reply := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
		reply <- result{resp, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); len(in.Events()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("query never reached a worker (%s)", in)
		}
	}
	update([]uint32{3, 4}) // seq 2, overlay generation 2, lands mid-query
	r := <-reply
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(r.resp.Body).Decode(&qr); err != nil || r.resp.StatusCode != http.StatusOK {
		t.Fatalf("/query: status %d, decode error %v", r.resp.StatusCode, err)
	}
	if qr.Provenance == nil {
		t.Fatal("provenance requested but absent")
	}
	if got, want := edge(qr.Provenance), (obs.RelLineage{Relation: "Edge", Epoch: epoch, OverlayGen: 1, WALSeq: 1, OverlayRows: 1}); got != want {
		t.Fatalf("held query's lineage %+v, want its fork's %+v", got, want)
	}

	restore()
	after := edge(queryWithProv(t, ts.URL, triangleQ).Provenance)
	if after.Epoch != eng.DB.EpochOf("Edge") || after.Epoch == epoch || after.OverlayGen != 2 || after.WALSeq != 2 {
		t.Fatalf("lineage after the update %+v", after)
	}
}
