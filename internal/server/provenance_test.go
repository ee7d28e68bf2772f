package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/fault"
	"emptyheaded/internal/obs"
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

	// Ring listing: both triangle records plus the path one.
	var list struct {
		Stats   obs.RingStats  `json:"stats"`
		Records []*obs.Lineage `json:"records"`
	}
	if code := getJSON(t, ts.URL+"/debug/provenance", &list); code != http.StatusOK {
		t.Fatalf("/debug/provenance: %d", code)
	}
	if list.Stats.Retained < 3 || len(list.Records) < 3 {
		t.Fatalf("ring: %+v (%d records)", list.Stats, len(list.Records))
	}

	// Point lookup by trace id, and 404 for an unknown one.
	var got obs.Lineage
	if code := getJSON(t, fmt.Sprintf("%s/debug/provenance/%d", ts.URL, qr1.TraceID), &got); code != http.StatusOK {
		t.Fatalf("/debug/provenance/<id>: %d", code)
	}
	if got.Fingerprint != rec.Fingerprint {
		t.Fatalf("lookup: %+v", got)
	}
	var errBody map[string]any
	if code := getJSON(t, ts.URL+"/debug/provenance/999999999", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}

	// The trace links its provenance record.
	var trOut struct {
		ID         uint64       `json:"id"`
		Provenance *obs.Lineage `json:"provenance"`
	}
	getJSON(t, fmt.Sprintf("%s/debug/trace/%d", ts.URL, qr1.TraceID), &trOut)
	if trOut.ID != qr1.TraceID || trOut.Provenance == nil || trOut.Provenance.Fingerprint != rec.Fingerprint {
		t.Fatalf("trace link: %+v", trOut)
	}

	// The workload registry links each fingerprint's last record.
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

	// The cached entry carries its fill-time record.
	var cache struct {
		ResultCache struct {
			Entries []struct {
				Key        string       `json:"key"`
				Provenance *obs.Lineage `json:"provenance"`
			} `json:"entries"`
		} `json:"result_cache"`
	}
	getJSON(t, ts.URL+"/debug/cache", &cache)
	if len(cache.ResultCache.Entries) == 0 || cache.ResultCache.Entries[0].Provenance == nil {
		t.Fatalf("cache entries missing provenance: %+v", cache.ResultCache)
	}

	// /stats reports the section.
	st := s.StatsSnapshot()
	if !st.Provenance.Enabled || st.Provenance.Ring.Total < 3 {
		t.Fatalf("stats provenance: %+v", st.Provenance)
	}
}

// TestProvenanceDiffWhyChanged: two executions of the same fingerprint
// straddling an update diff to exactly the drifted relation.
func TestProvenanceDiffWhyChanged(t *testing.T) {
	_, ts := newTestService(t, Config{})

	qr1 := queryWithProv(t, ts.URL, triangleQ)
	var upOut map[string]any
	if code, body := postJSON(t, ts.URL+"/update", UpdateRequest{
		Name:    "Edge",
		Inserts: [][]uint32{{200, 201}, {201, 202}, {200, 202}},
	}, &upOut); code != http.StatusOK {
		t.Fatalf("/update: %d %s", code, body)
	}
	qr2 := queryWithProv(t, ts.URL, triangleQ)
	if qr2.ResultCached {
		t.Fatalf("epoch bump should invalidate the cache: %+v", qr2)
	}

	var out struct {
		Diff obs.DiffReport `json:"diff"`
	}
	url := fmt.Sprintf("%s/debug/diff?a=%d&b=%d", ts.URL, qr1.TraceID, qr2.TraceID)
	if code := getJSON(t, url, &out); code != http.StatusOK {
		t.Fatalf("/debug/diff: %d", code)
	}
	d := out.Diff
	if d.FromTrace != qr1.TraceID || d.ToTrace != qr2.TraceID {
		t.Fatalf("diff traces: %+v", d)
	}
	if len(d.Drifted) != 1 || d.Drifted[0].Relation != "Edge" {
		t.Fatalf("drift attribution: %+v", d.Drifted)
	}
	if d.Drifted[0].ToEpoch != d.Drifted[0].FromEpoch+1 {
		t.Fatalf("epoch drift: %+v", d.Drifted[0])
	}
	if d.Drifted[0].OverlayRowsDelta != 3 {
		t.Fatalf("overlay attribution: %+v", d.Drifted[0])
	}
	// The test service runs without a WAL, so lineage is epoch-only.
	if !d.EpochOnly {
		t.Fatalf("no WAL ⇒ epoch-only: %+v", d)
	}

	// Different fingerprints are not comparable.
	qr3 := queryWithProv(t, ts.URL, pathQ)
	var errBody map[string]any
	url = fmt.Sprintf("%s/debug/diff?a=%d&b=%d", ts.URL, qr1.TraceID, qr3.TraceID)
	if code := getJSON(t, url, &errBody); code != http.StatusBadRequest {
		t.Fatalf("cross-fingerprint diff: %d (%v)", code, errBody)
	}
	// Malformed / missing ids.
	if code := getJSON(t, ts.URL+"/debug/diff?a=zzz&b=1", &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/debug/diff?a=%d&b=999999999", ts.URL, qr1.TraceID), &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
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
// background audit; a fresh entry audits clean.
func TestAuditSamplerRuns(t *testing.T) {
	s, ts := newTestService(t, Config{AuditFraction: 1})
	runQuery(t, ts.URL, triangleQ)
	runQuery(t, ts.URL, triangleQ) // cached serve → sampled
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.StatsSnapshot().Provenance.Audit
		if st.Checks >= 1 {
			if st.Mismatches != 0 || st.Errors != 0 {
				t.Fatalf("fresh entry audited dirty: %+v", st)
			}
			if st.Sampled < 1 {
				t.Fatalf("sampled counter: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sampled audit never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
