package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"emptyheaded/internal/obs"
)

func TestQueryAnalyzeResponse(t *testing.T) {
	_, ts := newTestService(t, Config{})

	var qr QueryResponse
	code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: triangleQ, Analyze: true}, &qr)
	if code != http.StatusOK {
		t.Fatalf("analyze query: status %d body %s", code, body)
	}
	if qr.Analyze == nil {
		t.Fatal("no analyze payload")
	}
	az := qr.Analyze
	if az.TraceID == 0 || az.TraceID != qr.TraceID {
		t.Fatalf("trace ids: analyze %d, response %d", az.TraceID, qr.TraceID)
	}
	// Per-bag per-level intersection counters made it to the wire.
	if len(az.Bags) == 0 {
		t.Fatal("no bag stats")
	}
	bag := az.Bags[0]
	if len(bag.Levels) != 3 {
		t.Fatalf("triangle bag has %d levels", len(bag.Levels))
	}
	for i, l := range bag.Levels {
		if l.Intersections == 0 {
			t.Fatalf("level %d has no intersections: %+v", i, l)
		}
	}
	if !strings.Contains(az.Plan, "actual:") {
		t.Fatalf("plan not annotated:\n%s", az.Plan)
	}
	// Phase timings partition the request: their sum stays within the
	// total and accounts for it up to a small bookkeeping gap.
	var sum int64
	for _, us := range az.PhasesUS {
		sum += us
	}
	if az.PhasesUS["execute"] == 0 && sum == 0 {
		t.Fatalf("empty phase breakdown: %v", az.PhasesUS)
	}
	if sum > az.TotalUS {
		t.Fatalf("phase sum %dµs exceeds total %dµs", sum, az.TotalUS)
	}
	if gap := az.TotalUS - sum; gap > 50_000 {
		t.Fatalf("phase sum %dµs leaves %dµs of the total %dµs unaccounted", sum, gap, az.TotalUS)
	}

	// A plain repeat serves from the result cache the analyze run filled,
	// without an analyze payload.
	var plain QueryResponse
	code, body = postJSON(t, ts.URL+"/query", QueryRequest{Query: triangleQ}, &plain)
	if code != http.StatusOK {
		t.Fatalf("plain repeat: status %d body %s", code, body)
	}
	if !plain.ResultCached || plain.Analyze != nil {
		t.Fatalf("plain repeat: cached=%v analyze=%v", plain.ResultCached, plain.Analyze)
	}
	if plain.Scalar == nil || qr.Scalar == nil || *plain.Scalar != *qr.Scalar {
		t.Fatalf("cached scalar %v != analyze scalar %v", plain.Scalar, qr.Scalar)
	}
}

func TestDebugQueryEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{})
	qr := runQuery(t, ts.URL, triangleQ)
	if qr.TraceID == 0 {
		t.Fatal("query response has no trace id")
	}

	resp, err := http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []traceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.ID == qr.TraceID {
			found = true
			if tr.Kind != "query" || tr.Fingerprint == "" || tr.Spans == 0 {
				t.Fatalf("trace summary malformed: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("trace %d not listed in %+v", qr.TraceID, list.Traces)
	}
	// ?n= is classified the way /debug/workload classifies it.
	for _, tc := range []struct {
		n      string
		code   int
		traces int
	}{
		{"1", http.StatusOK, 1},
		{"abc", http.StatusBadRequest, 0},
		{"-5", http.StatusBadRequest, 0},
	} {
		list.Traces = nil
		if code := getJSON(t, ts.URL+"/debug/queries?n="+tc.n, &list); code != tc.code || len(list.Traces) != tc.traces {
			t.Fatalf("?n=%s: status %d with %d traces, want %d with %d", tc.n, code, len(list.Traces), tc.code, tc.traces)
		}
	}

	// A recursive program runs its rules the way a single rule runs, so
	// its trace carries bag spans too.
	rec := runQuery(t, ts.URL, "SSSP(x;y:int) :- Edge(0,x); y=1.\nSSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
	for _, id := range []uint64{qr.TraceID, rec.TraceID} {
		var full struct {
			ID    uint64 `json:"id"`
			Spans []struct {
				Name  string `json:"name"`
				DurUS int64  `json:"dur_us"`
			} `json:"spans"`
		}
		if code := getJSON(t, ts.URL+"/debug/trace/"+strconv.FormatUint(id, 10), &full); code != http.StatusOK {
			t.Fatalf("/debug/trace/%d: status %d", id, code)
		}
		if full.ID != id {
			t.Fatalf("trace id %d, want %d", full.ID, id)
		}
		names := map[string]bool{}
		for _, sp := range full.Spans {
			if sp.DurUS < 0 {
				t.Fatalf("span %q left open", sp.Name)
			}
			names[sp.Name] = true
		}
		for _, want := range []string{"admission", "plan", "execute", "render", "bag 0"} {
			if !names[want] {
				t.Fatalf("trace %d missing span %q: %v", id, want, names)
			}
		}
	}

	// A fixpoint of many iterations leaves a bounded trace: SSSP down a
	// 200-hop path records its first iterations and counts the rest.
	hops := make([][2]int64, 200)
	for i := range hops {
		hops[i] = [2]int64{1000 + int64(i), 1001 + int64(i)}
	}
	if code, body := postJSON(t, ts.URL+"/load", LoadRequest{Name: "Hop", Edges: hops}, nil); code != http.StatusOK {
		t.Fatalf("load Hop: status %d body %s", code, body)
	}
	long := runQuery(t, ts.URL, "Far(x;y:int) :- Hop(1000,x); y=1.\nFar(x;y:int)* :- Hop(w,x),Far(w); y=<<MIN(w)>>+1.")
	if long.Cardinality != len(hops) {
		t.Fatalf("Far reached %d vertices, want %d", long.Cardinality, len(hops))
	}
	var bounded struct {
		Spans []json.RawMessage `json:"spans"`
		Attrs []struct {
			Key string `json:"key"`
		} `json:"attrs"`
	}
	if code := getJSON(t, ts.URL+"/debug/trace/"+strconv.FormatUint(long.TraceID, 10), &bounded); code != http.StatusOK {
		t.Fatalf("/debug/trace/%d: status %d", long.TraceID, code)
	}
	untraced := false
	for _, a := range bounded.Attrs {
		untraced = untraced || a.Key == "untraced_iterations"
	}
	if len(bounded.Spans) > 100 || !untraced {
		t.Fatalf("a %d-iteration fixpoint left %d spans, attrs %+v: want a bounded trace that counts the rest",
			len(hops), len(bounded.Spans), bounded.Attrs)
	}

	if resp3, err := http.Get(ts.URL + "/debug/trace/999999"); err != nil {
		t.Fatal(err)
	} else {
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace id: status %d", resp3.StatusCode)
		}
	}
}

// syncWriter makes a bytes.Buffer safe to share between the handler
// goroutines and the test's reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// slowQueryEvent is the slow_query event line: the unified event-log
// envelope (ts/seq/kind/trace_id) plus the slow-query fields.
type slowQueryEvent struct {
	TS          string            `json:"ts"`
	Seq         uint64            `json:"seq"`
	Kind        string            `json:"kind"`
	TraceID     uint64            `json:"trace_id"`
	Request     string            `json:"request"`
	Fingerprint string            `json:"fingerprint"`
	TotalUS     int64             `json:"total_us"`
	PhasesUS    map[string]int64  `json:"phases_us"`
	Attrs       map[string]string `json:"attrs"`
	Error       string            `json:"error"`
}

func TestSlowQueryLog(t *testing.T) {
	log := &syncWriter{}
	_, ts := newTestService(t, Config{SlowQueryThreshold: time.Nanosecond, Events: obs.NewEventLog(log)})

	qr := runQuery(t, ts.URL, triangleQ)
	out := strings.TrimSpace(log.String())
	if out == "" {
		t.Fatal("no slow-query event written")
	}
	// Slow queries land in the unified event log; find our request's
	// slow_query event among whatever else was emitted.
	var line slowQueryEvent
	found := false
	for _, raw := range strings.Split(out, "\n") {
		var ev slowQueryEvent
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("event line not JSON: %v in %q", err, raw)
		}
		if ev.Kind == "slow_query" && ev.TraceID == qr.TraceID {
			line, found = ev, true
			break
		}
	}
	if !found {
		t.Fatalf("no slow_query event for trace %d in %q", qr.TraceID, out)
	}
	if line.TS == "" || line.Seq == 0 {
		t.Fatalf("event envelope incomplete: %+v", line)
	}
	if line.Request != "query" || line.Fingerprint == "" {
		t.Fatalf("slow-query event malformed: %+v", line)
	}
	if len(line.PhasesUS) == 0 {
		t.Fatalf("slow-query event has no phase breakdown: %+v", line)
	}
	if line.Attrs["read_epochs"] == "" {
		t.Fatalf("slow-query event missing read_epochs: %+v", line)
	}
}

// TestMetricsHistograms scrapes /metrics after query/update/compaction
// traffic and validates the histogram families: cumulative buckets are
// monotone, the +Inf bucket equals _count, and the expected families
// are present and populated.
func TestMetricsHistograms(t *testing.T) {
	_, ts := newTestService(t, Config{})

	runQuery(t, ts.URL, triangleQ)
	runQuery(t, ts.URL, triangleQ) // cached serve: populates result-cache age histogram
	if code, body := postJSON(t, ts.URL+"/update",
		UpdateRequest{Name: "Edge", Inserts: [][]uint32{{1, 2}, {7, 9}}}, nil); code != http.StatusOK {
		t.Fatalf("/update: status %d body %s", code, body)
	}
	var cres struct {
		Compacted bool `json:"compacted"`
	}
	if code, body := postJSON(t, ts.URL+"/compact", CompactRequest{Name: "Edge"}, &cres); code != http.StatusOK || !cres.Compacted {
		t.Fatalf("/compact: status %d compacted %v body %s", code, cres.Compacted, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Histogram invariants per (family, label-set) series.
	type series struct {
		last    uint64
		infSeen uint64
		count   uint64
		hasSum  bool
	}
	all := map[string]*series{}
	get := func(key string) *series {
		s, ok := all[key]
		if !ok {
			s = &series{}
			all[key] = s
		}
		return s
	}
	// normalize turns a label block with the le pair removed into the
	// canonical series key suffix: "{}" and "{phase="x",}" collapse to ""
	// and "{phase="x"}".
	normalize := func(labels string) string {
		labels = strings.Replace(labels, ",}", "}", 1)
		if labels == "{}" {
			return ""
		}
		return labels
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
		name := fields[0]
		switch {
		case strings.Contains(name, "_bucket{"):
			fam := name[:strings.Index(name, "_bucket{")]
			labels := name[strings.Index(name, "{"):]
			le := ""
			if i := strings.Index(labels, `le="`); i >= 0 {
				le = labels[i+4 : i+4+strings.Index(labels[i+4:], `"`)]
			}
			key := fam + "|" + normalize(strings.Replace(labels, `le="`+le+`"`, "", 1))
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			s := get(key)
			if v < s.last {
				t.Fatalf("non-monotone cumulative buckets at %q: %d after %d", line, v, s.last)
			}
			s.last = v
			if le == "+Inf" {
				s.infSeen = v
			}
		case strings.HasSuffix(name, "_sum") || strings.Contains(name, "_sum{"):
			fam := strings.SplitN(name, "_sum", 2)[0]
			labels := ""
			if i := strings.Index(name, "{"); i >= 0 {
				labels = name[i:]
			}
			get(fam + "|" + labels).hasSum = true
		case strings.HasSuffix(name, "_count") || strings.Contains(name, "_count{"):
			if !strings.Contains(name, "_seconds_count") && !strings.Contains(name, "_age_seconds") {
				continue // not one of ours (e.g. future counters)
			}
			fam := strings.SplitN(name, "_count", 2)[0]
			labels := ""
			if i := strings.Index(name, "{"); i >= 0 {
				labels = name[i:]
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("count value %q: %v", line, err)
			}
			get(fam + "|" + labels).count = v
		}
	}
	for key, s := range all {
		if s.infSeen != s.count {
			t.Fatalf("series %s: +Inf bucket %d != count %d", key, s.infSeen, s.count)
		}
		if !s.hasSum {
			t.Fatalf("series %s: missing _sum", key)
		}
	}

	// The families exist and the traffic above landed in them.
	for _, fam := range []string{
		"emptyheaded_query_seconds",
		"emptyheaded_update_seconds",
		"emptyheaded_compaction_seconds",
		"emptyheaded_result_cache_age_seconds",
	} {
		s, ok := all[fam+"|"]
		if !ok {
			t.Fatalf("missing histogram family %s in:\n%s", fam, text)
		}
		if s.count == 0 {
			t.Fatalf("family %s never observed", fam)
		}
	}
	phased, ok := all[`emptyheaded_query_phase_seconds|{phase="execute"}`]
	if !ok {
		keys := make([]string, 0, len(all))
		for k := range all {
			keys = append(keys, k)
		}
		t.Fatalf("missing execute phase series; have %v", keys)
	}
	if phased.count == 0 {
		t.Fatal("execute phase histogram never observed")
	}

	// Satellite counters that must be present for the update/compaction
	// families.
	for _, want := range []string{
		"emptyheaded_updates_total 1",
		"emptyheaded_compactions_total 1",
		fmt.Sprintf("emptyheaded_query_seconds_count %d", 2),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestMetricsOverlayBytes checks the per-overlay memory gauges appear
// while an overlay is live.
func TestMetricsOverlayBytes(t *testing.T) {
	_, ts := newTestService(t, Config{})
	if code, body := postJSON(t, ts.URL+"/update",
		UpdateRequest{Name: "Edge", Inserts: [][]uint32{{3, 4}}, Deletes: [][]uint32{{0, 1}}}, nil); code != http.StatusOK {
		t.Fatalf("/update: status %d body %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`emptyheaded_overlay_bytes{relation="Edge",side="ins"}`,
		`emptyheaded_overlay_bytes{relation="Edge",side="del"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}
