package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emptyheaded/internal/obs"
	"emptyheaded/internal/trie"
)

// getStatus fetches url and returns only the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

type workloadReply struct {
	Totals       obs.WorkloadTotals     `json:"totals"`
	Sort         string                 `json:"sort"`
	Fingerprints []obs.FingerprintStats `json:"fingerprints"`
}

// TestWorkloadReplay is the acceptance-criterion test: drive a known
// query mix and verify /debug/workload reproduces it — counts, routes,
// rows, latency and kernel-counter aggregates.
func TestWorkloadReplay(t *testing.T) {
	_, ts := newTestService(t, Config{})

	// Triangle: one miss (parse+compile+execute), then two result-cache
	// serves. Path: two executions (NoCache skips the result cache, the
	// second reuses the cached plan).
	tri := runQuery(t, ts.URL, triangleQ)
	runQuery(t, ts.URL, triangleQ)
	runQuery(t, ts.URL, triangleQ)
	var p1, p2 QueryResponse
	if code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: pathQ, NoCache: true}, &p1); code != http.StatusOK {
		t.Fatalf("path query: status %d body %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: pathQ, NoCache: true}, &p2); code != http.StatusOK {
		t.Fatalf("path query: status %d body %s", code, body)
	}

	var wl workloadReply
	if code := getJSON(t, ts.URL+"/debug/workload?sort=count", &wl); code != http.StatusOK {
		t.Fatalf("/debug/workload: status %d", code)
	}
	if wl.Totals.Observed != 5 || wl.Totals.Fingerprints != 2 {
		t.Fatalf("totals: %+v", wl.Totals)
	}
	if wl.Totals.ResultHits != 2 || wl.Totals.Misses != 2 || wl.Totals.PlanHits != 1 {
		t.Fatalf("route totals: %+v", wl.Totals)
	}
	if len(wl.Fingerprints) != 2 {
		t.Fatalf("got %d fingerprints", len(wl.Fingerprints))
	}
	triRow := wl.Fingerprints[0]
	if triRow.Count != 3 {
		t.Fatalf("count-sorted top row: %+v", triRow)
	}
	if triRow.Query != triangleQ {
		t.Fatalf("sample spelling %q", triRow.Query)
	}
	if triRow.Routes[obs.RouteMiss] != 1 || triRow.Routes[obs.RouteResultHit] != 2 {
		t.Fatalf("triangle routes: %+v", triRow.Routes)
	}
	if triRow.TotalUS <= 0 || triRow.AvgUS <= 0 || triRow.P50US <= 0 || triRow.MaxUS < int64(triRow.P99US) {
		t.Fatalf("latency aggregates: %+v", triRow)
	}
	if triRow.PhasesUS["execute"] <= 0 {
		t.Fatalf("phase aggregates missing execute: %+v", triRow.PhasesUS)
	}
	if triRow.LastTraceID == 0 || triRow.FirstSeen == "" || triRow.LastSeen == "" {
		t.Fatalf("identity fields: %+v", triRow)
	}
	_ = tri

	pathRow := wl.Fingerprints[1]
	if pathRow.Count != 2 || pathRow.Routes[obs.RouteMiss] != 1 || pathRow.Routes[obs.RoutePlanHit] != 1 {
		t.Fatalf("path row: %+v", pathRow)
	}
	if want := int64(p1.Cardinality + p2.Cardinality); pathRow.Rows != want {
		t.Fatalf("path rows %d, want %d", pathRow.Rows, want)
	}

	// Sort + limit parameters.
	var byRows workloadReply
	if code := getJSON(t, ts.URL+"/debug/workload?sort=rows&n=1", &byRows); code != http.StatusOK {
		t.Fatal("rows sort failed")
	}
	if len(byRows.Fingerprints) != 1 || byRows.Fingerprints[0].Fingerprint != pathRow.Fingerprint {
		t.Fatalf("rows sort top: %+v", byRows.Fingerprints)
	}
	if code := getStatus(t, ts.URL+"/debug/workload?sort=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus sort: status %d", code)
	}
	if code := getStatus(t, ts.URL+"/debug/workload?n=zero"); code != http.StatusBadRequest {
		t.Fatalf("bogus n: status %d", code)
	}
}

// TestDebugRelationsHeat: /debug/relations is the catalog joined with
// each relation's overlay state and the layout census docs/KERNELS.md
// reads — and no longer a heat map.
func TestDebugRelationsHeat(t *testing.T) {
	_, ts := newTestService(t, Config{})
	if code, body := postJSON(t, ts.URL+"/update",
		UpdateRequest{Name: "Edge", Inserts: [][]uint32{{1, 2}, {4, 9}}}, nil); code != http.StatusOK {
		t.Fatalf("/update: status %d body %s", code, body)
	}

	var reply struct {
		Relations []struct {
			Name          string                    `json:"name"`
			Arity         int                       `json:"arity"`
			Cardinality   int                       `json:"cardinality"`
			HasOverlay    bool                      `json:"has_overlay"`
			LayoutProfile []trie.LevelLayoutProfile `json:"layout_profile"`
			Heat          json.RawMessage           `json:"heat"`
		} `json:"relations"`
	}
	if code := getJSON(t, ts.URL+"/debug/relations", &reply); code != http.StatusOK {
		t.Fatalf("/debug/relations: status %d", code)
	}
	if len(reply.Relations) != 1 {
		t.Fatalf("rows: %+v", reply.Relations)
	}
	edge := reply.Relations[0]
	if edge.Heat != nil {
		t.Fatalf("heat column still served: %s", edge.Heat)
	}
	if edge.Name != "Edge" || edge.Arity != 2 || edge.Cardinality == 0 {
		t.Fatalf("catalog join: %+v", edge)
	}
	if !edge.HasOverlay {
		t.Fatal("update applied but has_overlay false")
	}
	if len(edge.LayoutProfile) != edge.Arity {
		t.Fatalf("layout census has %d levels, want %d", len(edge.LayoutProfile), edge.Arity)
	}
}

// TestMetricsWorkloadFamilies checks the PR's /metrics additions: cache
// hit ratios in [0,1], route counters consistent with traffic, and
// eh_build_info present exactly once.
func TestMetricsWorkloadFamilies(t *testing.T) {
	_, ts := newTestService(t, Config{})
	runQuery(t, ts.URL, triangleQ)
	runQuery(t, ts.URL, triangleQ)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	ratioRe := regexp.MustCompile(`(?m)^emptyheaded_cache_hit_ratio\{cache="(plan|result)"\} (\S+)$`)
	ratios := ratioRe.FindAllStringSubmatch(text, -1)
	if len(ratios) != 2 {
		t.Fatalf("cache hit ratio series: %v", ratios)
	}
	for _, m := range ratios {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("ratio %s=%s not in [0,1]", m[1], m[2])
		}
	}

	routeRe := regexp.MustCompile(`(?m)^emptyheaded_query_route_total\{route="(result_hit|plan_hit|miss)"\} (\d+)$`)
	total := int64(0)
	for _, m := range routeRe.FindAllStringSubmatch(text, -1) {
		n, _ := strconv.ParseInt(m[2], 10, 64)
		if n < 0 {
			t.Fatalf("negative route counter: %v", m)
		}
		total += n
	}
	if total != 2 {
		t.Fatalf("route counters sum to %d, want 2 queries", total)
	}

	if !strings.Contains(text, "emptyheaded_events_total") {
		t.Fatalf("/metrics missing emptyheaded_events_total in:\n%s", text)
	}
	for _, gone := range []string{"emptyheaded_relation_", "emptyheaded_workload_"} {
		if strings.Contains(text, gone) {
			t.Fatalf("/metrics still serves %s* families:\n%s", gone, text)
		}
	}

	if n := strings.Count(text, "\neh_build_info{"); n != 1 {
		t.Fatalf("eh_build_info appears %d times, want exactly 1", n)
	}
}

// TestRingViewsUnderLoad drives more requests than the record ring
// retains, from concurrent clients while /debug/workload and /stats are
// read, then — the traffic stopped — checks both read-time views against
// the ring: /debug/workload counts exactly the retained query records
// and every row's provenance resolves, and each /stats endpoint's
// p50/p99/max are nearest rank over the retained records of its kind,
// computed here, while requests and errors count every request.
func TestRingViewsUnderLoad(t *testing.T) {
	s, ts := newTestService(t, Config{})
	defer s.Close()
	const clients, perClient = 4, 90
	texts := []QueryRequest{
		{Query: triangleQ},
		{Query: pathQ, Limit: 5},
		{Query: triangleQ, NoCache: true},
		{Query: `Q(x,z) :- Edge(x,y),Edge(y,z),Edge(z,x).`, Limit: 5},
		{Query: `TC(;w:long) :- Edge(x,`}, // parse error: no fingerprint
	}
	var sent, queries, queryErrs atomic.Int64 // pipeline requests, /query requests, /query errors
	post := func(path string, body any) int {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		sent.Add(1)
		return resp.StatusCode
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // reads both views while the ring turns over
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, path := range []string{"/debug/workload?sort=latency", "/stats"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if path == "/stats" {
					sent.Add(1)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				if i%30 == 29 {
					post("/update", UpdateRequest{Name: "Edge", Inserts: [][]uint32{{uint32(1000 + c), uint32(2000 + i)}}})
					continue
				}
				queries.Add(1)
				if post("/query", texts[(c+i)%len(texts)]) != http.StatusOK {
					queryErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	// A reply is written before its record is finished: wait for the last.
	for deadline := time.Now().Add(5 * time.Second); s.obs.Ring.Stats().Total != uint64(sent.Load()); {
		if time.Now().After(deadline) {
			t.Fatalf("ring filed %d records, %d requests were sent", s.obs.Ring.Stats().Total, sent.Load())
		}
		time.Sleep(time.Millisecond)
	}

	recs := s.obs.Ring.Recent(0)
	if len(recs) >= int(queries.Load()) {
		t.Fatalf("ring retains %d records of %d queries: the test must overflow it", len(recs), queries.Load())
	}
	byKind := map[string][]int64{}
	profiled := 0
	for _, r := range recs {
		byKind[r.Kind] = append(byKind[r.Kind], r.Elapsed.Microseconds())
		if r.Kind == "query" && r.Fingerprint != "" {
			profiled++
		}
	}

	var wl workloadReply
	if code := getJSON(t, ts.URL+"/debug/workload?n=1000", &wl); code != http.StatusOK {
		t.Fatalf("/debug/workload: status %d", code)
	}
	var count int64
	for _, row := range wl.Fingerprints {
		count += row.Count
		if row.Provenance == nil || row.Provenance.TraceID != row.LastTraceID {
			t.Fatalf("row %s: provenance %+v does not name its last record %d", row.Fingerprint, row.Provenance, row.LastTraceID)
		}
		var tr struct {
			Provenance *obs.Lineage `json:"provenance"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/debug/trace/%d", ts.URL, row.LastTraceID), &tr); code != http.StatusOK ||
			tr.Provenance == nil || tr.Provenance.Fingerprint != row.Provenance.Fingerprint {
			t.Fatalf("row %s: /debug/trace/%d: status %d, provenance %+v", row.Fingerprint, row.LastTraceID, code, tr.Provenance)
		}
	}
	if wl.Totals.Observed != int64(profiled) || count != int64(profiled) || wl.Totals.Fingerprints != len(wl.Fingerprints) {
		t.Fatalf("/debug/workload observed %d, rows sum to %d; the ring retains %d query records with a fingerprint",
			wl.Totals.Observed, count, profiled)
	}

	// Nearest rank: the ceil(pct·n/100)-th smallest.
	rank := func(us []int64, pct int) float64 {
		if len(us) == 0 {
			return 0
		}
		return float64(us[(pct*len(us)+99)/100-1])
	}
	st := s.StatsSnapshot()
	for path, ep := range st.Endpoints {
		us := byKind[path[1:]]
		slices.Sort(us)
		if ep.P50US != rank(us, 50) || ep.P99US != rank(us, 99) || ep.MaxUS != rank(us, 100) {
			t.Fatalf("%s: p50/p99/max %g/%g/%g, nearest rank over %d retained records %g/%g/%g",
				path, ep.P50US, ep.P99US, ep.MaxUS, len(us), rank(us, 50), rank(us, 99), rank(us, 100))
		}
	}
	if q := st.Endpoints["/query"]; q.Requests != queries.Load() || q.Errors != queryErrs.Load() {
		t.Fatalf("/query counters %d requests, %d errors; sent %d, %d failed", q.Requests, q.Errors, queries.Load(), queryErrs.Load())
	}
}
