package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

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

	for _, want := range []string{
		"emptyheaded_workload_fingerprints 1",
		"emptyheaded_workload_observed_total 2",
		"emptyheaded_events_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "emptyheaded_relation_") {
		t.Fatalf("/metrics still serves per-relation heat families:\n%s", text)
	}

	if n := strings.Count(text, "\neh_build_info{"); n != 1 {
		t.Fatalf("eh_build_info appears %d times, want exactly 1", n)
	}
}
