package server

import (
	"bytes"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"emptyheaded/internal/obs"
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
	// The miss execution collected kernel counters by default.
	if triRow.Intersections == 0 || triRow.Probes == 0 {
		t.Fatalf("no kernel counters aggregated: %+v", triRow)
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

func TestDebugRelationsHeat(t *testing.T) {
	_, ts := newTestService(t, Config{})
	runQuery(t, ts.URL, triangleQ)
	if code, body := postJSON(t, ts.URL+"/update",
		UpdateRequest{Name: "Edge", Inserts: [][]uint32{{1, 2}, {4, 9}}}, nil); code != http.StatusOK {
		t.Fatalf("/update: status %d body %s", code, body)
	}
	runQuery(t, ts.URL, pathQ) // reads Edge through the overlay now

	var reply struct {
		Relations []struct {
			Name        string            `json:"name"`
			Arity       int               `json:"arity"`
			Cardinality int               `json:"cardinality"`
			HasOverlay  bool              `json:"has_overlay"`
			Heat        *obs.RelationHeat `json:"heat"`
		} `json:"relations"`
	}
	if code := getJSON(t, ts.URL+"/debug/relations", &reply); code != http.StatusOK {
		t.Fatalf("/debug/relations: status %d", code)
	}
	var edge *struct {
		Name        string            `json:"name"`
		Arity       int               `json:"arity"`
		Cardinality int               `json:"cardinality"`
		HasOverlay  bool              `json:"has_overlay"`
		Heat        *obs.RelationHeat `json:"heat"`
	}
	for i := range reply.Relations {
		if reply.Relations[i].Name == "Edge" {
			edge = &reply.Relations[i]
		}
	}
	if edge == nil {
		t.Fatalf("Edge missing from %+v", reply.Relations)
	}
	if edge.Arity != 2 || edge.Cardinality == 0 {
		t.Fatalf("catalog join: %+v", edge)
	}
	if !edge.HasOverlay {
		t.Fatal("update applied but has_overlay false")
	}
	if edge.Heat == nil {
		t.Fatal("Edge has no heat row")
	}
	h := edge.Heat
	if h.Reads != 2 {
		t.Fatalf("reads %d, want 2 (triangle + path)", h.Reads)
	}
	if h.OverlayReads != 1 {
		t.Fatalf("overlay reads %d, want 1 (only the post-update query)", h.OverlayReads)
	}
	if h.Probes == 0 || h.Intersections == 0 {
		t.Fatalf("no loop-nest attribution: %+v", h)
	}
	if len(h.LevelProbes) == 0 {
		t.Fatalf("no per-column probes: %+v", h)
	}
	if h.UpdateBatches != 1 || h.UpdateRows != 2 || h.UpdateBytes != 2*2*4 {
		t.Fatalf("update counters: %+v", h)
	}
	if h.LastRead == "" || h.LastUpdate == "" {
		t.Fatalf("timestamps: %+v", h)
	}
}

func TestDebugCacheEndpoint(t *testing.T) {
	_, ts := newTestService(t, Config{})
	runQuery(t, ts.URL, triangleQ) // miss: fills plan + result cache
	runQuery(t, ts.URL, triangleQ) // fast-path result serve: bumps entry hits

	var reply struct {
		PlanCache struct {
			Stats   PlanCacheStats `json:"stats"`
			Entries []struct {
				Fingerprint string   `json:"fingerprint"`
				Reads       []string `json:"reads"`
				Hits        int64    `json:"hits"`
			} `json:"entries"`
		} `json:"plan_cache"`
		ResultCache struct {
			Stats   CacheStats `json:"stats"`
			Entries []struct {
				Key         string   `json:"key"`
				Reads       []string `json:"reads"`
				RelEpochs   []uint64 `json:"rel_epochs"`
				AgeS        float64  `json:"age_s"`
				Hits        int64    `json:"hits"`
				Cardinality int      `json:"cardinality"`
				ApproxBytes int64    `json:"approx_bytes"`
			} `json:"entries"`
		} `json:"result_cache"`
	}
	if code := getJSON(t, ts.URL+"/debug/cache", &reply); code != http.StatusOK {
		t.Fatalf("/debug/cache: status %d", code)
	}
	if len(reply.PlanCache.Entries) != 1 {
		t.Fatalf("plan entries: %+v", reply.PlanCache.Entries)
	}
	pe := reply.PlanCache.Entries[0]
	if pe.Fingerprint == "" || len(pe.Reads) == 0 {
		t.Fatalf("plan entry: %+v", pe)
	}
	hasEdge := false
	for _, r := range pe.Reads {
		hasEdge = hasEdge || r == "Edge"
	}
	if !hasEdge {
		t.Fatalf("plan entry read set misses Edge: %+v", pe)
	}
	if pe.Hits != 1 {
		t.Fatalf("plan entry hits %d, want 1 (the fast-path serve)", pe.Hits)
	}
	if len(reply.ResultCache.Entries) != 1 {
		t.Fatalf("result entries: %+v", reply.ResultCache.Entries)
	}
	re := reply.ResultCache.Entries[0]
	if !strings.Contains(re.Key, pe.Fingerprint) {
		t.Fatalf("result key %q does not embed fingerprint %q", re.Key, pe.Fingerprint)
	}
	if len(re.Reads) == 0 || len(re.RelEpochs) != len(re.Reads) {
		t.Fatalf("result entry read set: %+v", re)
	}
	if re.Hits != 1 {
		t.Fatalf("result entry hits %d, want 1", re.Hits)
	}
	if re.AgeS < 0 || re.AgeS > 60 {
		t.Fatalf("result entry age %g", re.AgeS)
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
		`emptyheaded_relation_reads_total{relation="Edge"}`,
		`emptyheaded_relation_probes_total{relation="Edge"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	if n := strings.Count(text, "\neh_build_info{"); n != 1 {
		t.Fatalf("eh_build_info appears %d times, want exactly 1", n)
	}
}
