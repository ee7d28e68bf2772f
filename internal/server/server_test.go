package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/gen"
)

// newTestService returns a server over a deterministic power-law graph
// loaded as Edge, plus its HTTP test frontend.
func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng := core.New()
	eng.LoadGraph("Edge", gen.PowerLaw(150, 900, 2.1, 42))
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func runQuery(t *testing.T, base, query string) QueryResponse {
	t.Helper()
	var qr QueryResponse
	code, body := postJSON(t, base+"/query", QueryRequest{Query: query}, &qr)
	if code != http.StatusOK {
		t.Fatalf("/query %q: status %d, body %s", query, code, body)
	}
	return qr
}

const (
	triangleQ = `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
	pathQ     = `P(x,z) :- Edge(x,y),Edge(y,z).`
	degreeQ   = `Deg(x;w:long) :- Edge(x,y); w=<<COUNT(y)>>.`
)

// TestListingRepliesCarryNoAnns pins the /query wire of docs/LANGUAGE.md:
// a listing is a set, so its reply has tuples and no "anns"; an aggregate's
// reply carries one annotation per tuple.
func TestListingRepliesCarryNoAnns(t *testing.T) {
	_, ts := newTestService(t, Config{})
	for _, tc := range []struct {
		query string
		anns  bool
	}{{pathQ, false}, {degreeQ, true}} {
		var raw map[string]json.RawMessage
		if code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: tc.query}, &raw); code != http.StatusOK {
			t.Fatalf("/query %q: status %d, body %s", tc.query, code, body)
		}
		var tuples [][]int64
		var anns []float64
		if err := json.Unmarshal(raw["tuples"], &tuples); err != nil || len(tuples) == 0 {
			t.Fatalf("%q: no tuples (%v)", tc.query, err)
		}
		_, has := raw["anns"]
		if has {
			if err := json.Unmarshal(raw["anns"], &anns); err != nil {
				t.Fatal(err)
			}
		}
		if has != tc.anns || has && len(anns) != len(tuples) {
			t.Fatalf("%q: anns present %v with %d of %d tuples, want present %v", tc.query, has, len(anns), len(tuples), tc.anns)
		}
	}
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{})

	// /healthz
	var health map[string]bool
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health["ok"] {
		t.Fatalf("/healthz: code %d, body %v", code, health)
	}

	// /relations sees the startup graph.
	var rels struct {
		Relations []core.RelationInfo `json:"relations"`
	}
	getJSON(t, ts.URL+"/relations", &rels)
	if len(rels.Relations) != 1 || rels.Relations[0].Name != "Edge" || rels.Relations[0].Arity != 2 {
		t.Fatalf("/relations: %+v", rels)
	}

	// /query triangle count: scalar result, uncached on first sight.
	qr := runQuery(t, ts.URL, triangleQ)
	if qr.Scalar == nil || *qr.Scalar <= 0 {
		t.Fatalf("triangle count: %+v", qr)
	}
	if qr.PlanCached || qr.ResultCached {
		t.Errorf("first run should miss both caches: %+v", qr)
	}
	want := *qr.Scalar

	// Second identical run: plan and result cache hits.
	qr2 := runQuery(t, ts.URL, triangleQ)
	if *qr2.Scalar != want {
		t.Errorf("repeat run: got %g, want %g", *qr2.Scalar, want)
	}
	if !qr2.PlanCached || !qr2.ResultCached {
		t.Errorf("repeat run should hit both caches: %+v", qr2)
	}

	// Alpha-renamed variant: different text, same fingerprint — plan
	// cache hit without a result-cache dependency on exact text.
	qr3 := runQuery(t, ts.URL, `TC(;c:long) :- Edge(a,b),Edge(b,d),Edge(a,d); c=<<COUNT(*)>>.`)
	if *qr3.Scalar != want {
		t.Errorf("alpha-renamed run: got %g, want %g", *qr3.Scalar, want)
	}
	if !qr3.PlanCached {
		t.Errorf("alpha-renamed run should hit the plan cache: %+v", qr3)
	}

	// A listing variant's attributes carry its own variable names even
	// when the plan and result come from another spelling's cache entry.
	p1 := runQuery(t, ts.URL, `P(x,z) :- Edge(x,y),Edge(y,z).`)
	if len(p1.Attrs) != 2 || p1.Attrs[0] != "x" || p1.Attrs[1] != "z" {
		t.Errorf("first spelling attrs: %v, want [x z]", p1.Attrs)
	}
	p2 := runQuery(t, ts.URL, `P(a,c) :- Edge(a,b),Edge(b,c).`)
	if !p2.PlanCached {
		t.Errorf("alpha-renamed listing should hit the plan cache: %+v", p2)
	}
	if len(p2.Attrs) != 2 || p2.Attrs[0] != "a" || p2.Attrs[1] != "c" {
		t.Errorf("renamed spelling attrs: %v, want [a c]", p2.Attrs)
	}
	if p2.Cardinality != p1.Cardinality {
		t.Errorf("renamed spelling cardinality %d, want %d", p2.Cardinality, p1.Cardinality)
	}

	// /explain renders a plan.
	var ex map[string]string
	code, body := postJSON(t, ts.URL+"/explain", ExplainRequest{Query: triangleQ}, &ex)
	if code != http.StatusOK || ex["plan"] == "" {
		t.Fatalf("/explain: code %d body %s", code, body)
	}

	// Parse errors surface as 400.
	if code, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: "this is not datalog"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: `X(a) :- Missing(a,b).`}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown relation: status %d, want 400", code)
	}

	// /stats reflects the traffic.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.PlanCache.Hits == 0 {
		t.Errorf("plan cache hits = 0 after repeated queries: %+v", st.PlanCache)
	}
	if st.ResultCache.Hits == 0 {
		t.Errorf("result cache hits = 0 after repeated queries: %+v", st.ResultCache)
	}
	if st.Endpoints["/query"].Requests < 4 {
		t.Errorf("per-endpoint counters missing: %+v", st.Endpoints["/query"])
	}
	if st.Endpoints["/query"].Errors < 2 {
		t.Errorf("error accounting missing: %+v", st.Endpoints["/query"])
	}
}

func TestLoadInvalidatesCaches(t *testing.T) {
	_, ts := newTestService(t, Config{})

	qr := runQuery(t, ts.URL, triangleQ)
	before := *qr.Scalar
	runQuery(t, ts.URL, triangleQ) // populate result cache

	// Replace Edge with a single triangle via inline /load.
	var lr map[string]any
	code, body := postJSON(t, ts.URL+"/load", LoadRequest{
		Name:       "Edge",
		Edges:      [][2]int64{{10, 20}, {20, 30}, {10, 30}},
		Undirected: true,
	}, &lr)
	if code != http.StatusOK {
		t.Fatalf("/load: code %d body %s", code, body)
	}

	qr2 := runQuery(t, ts.URL, triangleQ)
	if qr2.ResultCached {
		t.Error("result cache survived a load")
	}
	// 1 undirected triangle = 6 ordered instances; the old graph's count
	// must be gone.
	if *qr2.Scalar != 6 || *qr2.Scalar == before {
		t.Errorf("post-load triangle count: got %g (pre-load %g), want 6", *qr2.Scalar, before)
	}

	// Listing query decodes through the new dictionary (original ids).
	qr3 := runQuery(t, ts.URL, `S(y) :- Edge(10,y).`)
	ids := map[int64]bool{}
	for _, tup := range qr3.Tuples {
		ids[tup[0]] = true
	}
	if !ids[20] || !ids[30] || len(ids) != 2 {
		t.Errorf("decoded neighbors of 10: %v, want {20,30}", qr3.Tuples)
	}
}

// TestConcurrentMixedQueries is the -race stress test: 32 goroutines fire
// a mixed workload (triangle count, path listing, degree aggregation) at
// one shared service and every response must match the sequential answer.
func TestConcurrentMixedQueries(t *testing.T) {
	// Deep queue and generous wait: this test asserts correctness and
	// cache behavior under contention, not overload shedding (the -race
	// detector makes individual queries slow enough to overflow the
	// production defaults).
	s, ts := newTestService(t, Config{Workers: 8, QueueDepth: 256, QueueWait: 2 * time.Minute})

	// Sequential ground truth.
	tri := runQuery(t, ts.URL, triangleQ)
	path := runQuery(t, ts.URL, pathQ)
	deg := runQuery(t, ts.URL, degreeQ)
	if tri.Scalar == nil || path.Cardinality == 0 || deg.Cardinality == 0 {
		t.Fatalf("degenerate ground truth: tri=%+v path.card=%d deg.card=%d", tri, path.Cardinality, deg.Cardinality)
	}

	const goroutines = 32
	const perG = 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Rotate the mix; sometimes bypass the result cache so
				// real executions and cache serves interleave.
				noCache := (g+i)%3 == 0
				var query string
				var check func(QueryResponse) error
				switch (g + i) % 3 {
				case 0:
					query = triangleQ
					check = func(qr QueryResponse) error {
						if qr.Scalar == nil || *qr.Scalar != *tri.Scalar {
							return fmt.Errorf("triangle: got %+v, want %g", qr.Scalar, *tri.Scalar)
						}
						return nil
					}
				case 1:
					query = pathQ
					check = func(qr QueryResponse) error {
						if qr.Cardinality != path.Cardinality {
							return fmt.Errorf("path: cardinality %d, want %d", qr.Cardinality, path.Cardinality)
						}
						return nil
					}
				default:
					query = degreeQ
					check = func(qr QueryResponse) error {
						if qr.Cardinality != deg.Cardinality {
							return fmt.Errorf("degree: cardinality %d, want %d", qr.Cardinality, deg.Cardinality)
						}
						return nil
					}
				}
				var qr QueryResponse
				code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: query, NoCache: noCache}, &qr)
				if code != http.StatusOK {
					errCh <- fmt.Errorf("status %d: %s", code, body)
					continue
				}
				if err := check(qr); err != nil {
					errCh <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.StatsSnapshot()
	if st.PlanCache.Hits == 0 {
		t.Errorf("stress run produced no plan-cache hits: %+v", st.PlanCache)
	}
	if st.Admission.Active != 0 || st.Admission.Queued != 0 {
		t.Errorf("admission gauges nonzero after drain: %+v", st.Admission)
	}
	if got := st.Endpoints["/query"].Errors; got != 0 {
		t.Errorf("stress run recorded %d query errors", got)
	}
}

func TestAdmissionControl(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Slot taken: the next caller waits alone in the gate, times out.
	if _, err := a.acquire(context.Background()); err != errQueueTimeout {
		t.Errorf("expected queue timeout, got %v", err)
	}
	// One caller occupies the gate; the next overflows it immediately.
	done := make(chan error, 1)
	go func() {
		rel2, err := a.acquire(context.Background())
		if err == nil {
			rel2()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the goroutine enter the gate
	if _, err := a.acquire(context.Background()); err != errQueueFull {
		t.Errorf("expected queue full, got %v", err)
	}
	release()
	if err := <-done; err != nil {
		t.Errorf("queued caller should get the released slot: %v", err)
	}
	st := a.stats()
	if st.RejectedFull == 0 || st.RejectedTimeout == 0 {
		t.Errorf("rejection counters: %+v", st)
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Errorf("gauges after drain: %+v", st)
	}
}

// TestPlanCacheSharedByRunAndServer: Engine.Run and /query resolve through
// the engine's one plan cache — a text Run prepared is a plan hit for
// /query, an alpha-renamed spelling reuses the plan under its own
// attribute names, and other options get a fresh plan.
func TestPlanCacheSharedByRunAndServer(t *testing.T) {
	s, ts := newTestService(t, Config{})
	defer s.Close()
	eng := s.eng
	if _, err := eng.Run(triangleQ); err != nil {
		t.Fatal(err)
	}
	if got := runQuery(t, ts.URL, triangleQ); !got.PlanCached {
		t.Fatalf("/query after Engine.Run of the same text: %+v", got)
	}
	if st := eng.Plans().Stats(); st.Parses != 1 {
		t.Fatalf("%d parses for one text run in-process and served, want 1", st.Parses)
	}

	prep := func(text string) *exec.Prepared {
		t.Helper()
		lk := eng.Plans().Lookup(text, eng.Opts)
		if lk.Plan == nil {
			t.Fatalf("no cached plan for %q", text)
		}
		return lk.Plan.Prep
	}
	const renamed = `P(a,c) :- Edge(a,b),Edge(b,c).`
	res, err := eng.Run(pathQ)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Cardinality()
	first := prep(pathQ)
	for _, q := range []struct{ text, attrs string }{{renamed, "[a c]"}, {pathQ, "[x z]"}} {
		res, err := eng.Run(q.text)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Attrs); got != q.attrs || res.Cardinality() != want {
			t.Fatalf("Run(%q): attrs %s, %d tuples; want %s, %d", q.text, got, res.Cardinality(), q.attrs, want)
		}
		if prep(q.text) != first {
			t.Fatalf("Run(%q) planned again", q.text)
		}
	}
	if got := runQuery(t, ts.URL, renamed); !got.PlanCached || fmt.Sprint(got.Attrs) != "[a c]" {
		t.Fatalf("/query of the renamed spelling: plan_cached %v, attrs %v", got.PlanCached, got.Attrs)
	}

	eng.Opts.SingleBag = true
	if _, err := eng.Run(renamed); err != nil {
		t.Fatal(err)
	}
	if prep(renamed) == first {
		t.Fatal("the plan survived an options change")
	}
}
