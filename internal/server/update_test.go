package server

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/ghd"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/wal"
)

// newUpdateService serves a small hand-built edge relation (dense
// codes, no dictionary) so update bodies can speak codes directly.
func newUpdateService(t *testing.T, cfg Config) (*core.Engine, *httptest.Server) {
	t.Helper()
	eng := core.New()
	// One DAG triangle 0→1→2 with chord 0→2, plus a stray edge 3→4.
	if err := eng.AddRelationColumns("Edge",
		[][]uint32{{0, 1, 0, 3}, {1, 2, 2, 4}}, nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

func triCount(t *testing.T, base string) float64 {
	t.Helper()
	qr := runQuery(t, base, `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)
	if qr.Scalar == nil {
		t.Fatalf("no scalar in %+v", qr)
	}
	return *qr.Scalar
}

func TestUpdateEndpoint(t *testing.T) {
	_, ts := newUpdateService(t, Config{})
	if got := triCount(t, ts.URL); got != 1 {
		t.Fatalf("seed triangle count %g, want 1", got)
	}

	// Insert rows: a second triangle 1→3→4 (closing over 3→4).
	var ur struct {
		Cardinality int `json:"cardinality"`
		OverlayRows int `json:"overlay_rows"`
		Inserted    int `json:"inserted"`
	}
	code, body := postJSON(t, ts.URL+"/update", UpdateRequest{
		Name:    "Edge",
		Inserts: [][]uint32{{1, 3}, {1, 4}},
	}, &ur)
	if code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	if ur.Inserted != 2 || ur.Cardinality != 6 || ur.OverlayRows != 2 {
		t.Fatalf("update response %+v", ur)
	}
	if got := triCount(t, ts.URL); got != 2 {
		t.Fatalf("triangle count after insert %g, want 2", got)
	}

	// Delete via columns: remove the original triangle's chord 0→2.
	code, body = postJSON(t, ts.URL+"/update", UpdateRequest{
		Name:          "Edge",
		DeleteColumns: [][]uint32{{0}, {2}},
	}, nil)
	if code != 200 {
		t.Fatalf("delete: %d %s", code, body)
	}
	if got := triCount(t, ts.URL); got != 1 {
		t.Fatalf("triangle count after delete %g, want 1", got)
	}

	// Bad requests.
	for _, req := range []UpdateRequest{
		{},                                       // no name
		{Name: "Edge"},                           // no rows
		{Name: "Edge", Inserts: [][]uint32{{1}}}, // arity
		{Name: "Edge", Inserts: [][]uint32{{1, 2}}, InsertColumns: [][]uint32{{1}}}, // both forms
	} {
		if code, _ := postJSON(t, ts.URL+"/update", req, nil); code != 400 {
			t.Fatalf("bad request %+v: code %d", req, code)
		}
	}
}

// TestUpdateResultCacheScoping: updating Edge invalidates cached
// results that read Edge but keeps results over other relations.
func TestUpdateResultCacheScoping(t *testing.T) {
	eng, ts := newUpdateService(t, Config{})
	if err := eng.AddRelationColumns("Other", [][]uint32{{5, 6}, {6, 7}}, nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	edgeQ := `L(x,y) :- Edge(x,y).`
	otherQ := `M(x,y) :- Other(x,y).`
	runQuery(t, ts.URL, edgeQ)
	runQuery(t, ts.URL, otherQ)
	if qr := runQuery(t, ts.URL, otherQ); !qr.ResultCached {
		t.Fatal("Other query should be cached before the update")
	}

	if code, body := postJSON(t, ts.URL+"/update", UpdateRequest{
		Name: "Edge", Inserts: [][]uint32{{9, 9}},
	}, nil); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	if qr := runQuery(t, ts.URL, otherQ); !qr.ResultCached {
		t.Fatal("Other query cache entry should survive an Edge update")
	}
	qr := runQuery(t, ts.URL, edgeQ)
	if qr.ResultCached {
		t.Fatal("Edge query cache entry should be invalidated by the update")
	}
	if qr.Cardinality != 5 {
		t.Fatalf("Edge listing cardinality %d, want 5", qr.Cardinality)
	}
}

func TestCompactEndpoint(t *testing.T) {
	_, ts := newUpdateService(t, Config{})
	postJSON(t, ts.URL+"/update", UpdateRequest{Name: "Edge", Inserts: [][]uint32{{8, 9}}}, nil)
	before := triCount(t, ts.URL)

	var cr struct {
		Compacted bool `json:"compacted"`
	}
	if code, body := postJSON(t, ts.URL+"/compact", CompactRequest{Name: "Edge"}, &cr); code != 200 || !cr.Compacted {
		t.Fatalf("compact: %d %s (%+v)", code, body, cr)
	}
	if got := triCount(t, ts.URL); got != before {
		t.Fatalf("compaction changed results: %g != %g", got, before)
	}
	// Second compact is a no-op.
	if code, _ := postJSON(t, ts.URL+"/compact", CompactRequest{Name: "Edge"}, &cr); code != 200 || cr.Compacted {
		t.Fatalf("re-compact should be a no-op, got %+v", cr)
	}
	if code, _ := postJSON(t, ts.URL+"/compact", CompactRequest{}, nil); code != 400 {
		t.Fatal("compact without name should 400")
	}
}

// TestUpdateWALRestartViaServer: a server with a WAL recovers streamed
// updates in a second server process-equivalent (fresh engine, same
// dirs) without an intervening snapshot.
func TestUpdateWALRestartViaServer(t *testing.T) {
	walDir := t.TempDir()

	eng := core.New()
	eng.AddRelationColumns("Edge", [][]uint32{{0, 1, 2}, {1, 2, 0}}, nil, semiring.None)
	if _, err := eng.OpenWAL(core.WALConfig{Dir: walDir, Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	postJSON(t, ts.URL+"/update", UpdateRequest{Name: "Edge", Inserts: [][]uint32{{0, 2}, {2, 1}}}, nil)
	postJSON(t, ts.URL+"/update", UpdateRequest{Name: "Edge", Deletes: [][]uint32{{2, 0}}}, nil)
	want := runQuery(t, ts.URL, `L(x,y) :- Edge(x,y).`)
	ts.Close()
	// No CloseWAL: simulate an unclean exit (fsync=always made every
	// acknowledged batch durable).

	eng2 := core.New()
	eng2.AddRelationColumns("Edge", [][]uint32{{0, 1, 2}, {1, 2, 0}}, nil, semiring.None)
	st, err := eng2.OpenWAL(core.WALConfig{Dir: walDir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 {
		t.Fatalf("replay stats %+v", st)
	}
	ts2 := httptest.NewServer(New(eng2, Config{}).Handler())
	defer ts2.Close()
	got := runQuery(t, ts2.URL, `L(x,y) :- Edge(x,y).`)
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("restart: %d tuples, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if got.Tuples[i][0] != want.Tuples[i][0] || got.Tuples[i][1] != want.Tuples[i][1] {
			t.Fatalf("restart tuple %d: %v != %v", i, got.Tuples[i], want.Tuples[i])
		}
	}
}

func TestMetricsIncludeDurability(t *testing.T) {
	_, ts := newUpdateService(t, Config{})
	postJSON(t, ts.URL+"/update", UpdateRequest{Name: "Edge", Inserts: [][]uint32{{7, 8}}}, nil)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"emptyheaded_updates_total 1",
		"emptyheaded_update_rows_total 1",
		"emptyheaded_overlay_rows{relation=\"Edge\"} 1",
		"emptyheaded_compactions_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestPlanSurvivesUpdates: a plan does not depend on the data, so 100
// rounds of /update — half of them on a relation the query does not read
// — and /query derive the triangle plan once, every reply marked
// plan_cached planned nothing, and every answer is the no_cache answer of
// a freshly loaded server.
func TestPlanSurvivesUpdates(t *testing.T) {
	edges := [][]uint32{{0, 1, 0, 3}, {1, 2, 2, 4}}
	serve := func(cols [][]uint32) (*Server, *httptest.Server) {
		eng := core.New()
		if err := eng.AddRelationColumns("Edge", [][]uint32{slices.Clone(cols[0]), slices.Clone(cols[1])}, nil, semiring.None); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddRelationColumns("Other", [][]uint32{{5}, {6}}, nil, semiring.None); err != nil {
			t.Fatal(err)
		}
		s := New(eng, Config{})
		return s, httptest.NewServer(s.Handler())
	}
	s, ts := serve(edges)
	defer s.Close()
	defer ts.Close()
	triCount(t, ts.URL)
	if n := s.eng.Plans().Stats().Size; n != 1 {
		t.Fatalf("%d plan entries after one query", n)
	}
	prep := s.eng.Plans().Lookup(triangleQ, s.eng.Opts).Plan.Prep
	// Every derivation creates a GHD, every execution's plan shares it.
	derivation := func() *ghd.GHD {
		res, err := prep.RunWith(s.eng.DB.Fork(), exec.RunParams{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan.GHD
	}
	first := derivation()

	for i := uint32(0); i < 100; i++ {
		req := UpdateRequest{Name: "Other", Inserts: [][]uint32{{i, i + 1}}}
		if i%2 == 0 {
			// A fresh triangle hanging off vertex 0.
			a, b := 10+2*i, 11+2*i
			req = UpdateRequest{Name: "Edge", Inserts: [][]uint32{{0, a}, {a, b}, {0, b}}}
			edges[0] = append(edges[0], 0, a, 0)
			edges[1] = append(edges[1], a, b, b)
		}
		if code, body := postJSON(t, ts.URL+"/update", req, nil); code != 200 {
			t.Fatalf("round %d: update: %d %s", i, code, body)
		}
		got := runQuery(t, ts.URL, triangleQ)
		if !got.PlanCached {
			t.Fatalf("round %d: plan_cached false", i)
		}
		fs, fts := serve(edges)
		var want QueryResponse
		code, body := postJSON(t, fts.URL+"/query", QueryRequest{Query: triangleQ, NoCache: true}, &want)
		fts.Close()
		fs.Close()
		if code != 200 || want.Scalar == nil || got.Scalar == nil || *got.Scalar != *want.Scalar {
			t.Fatalf("round %d: got %+v, a fresh server says %d %s", i, got, code, body)
		}
		if i%2 == 0 && *got.Scalar != float64(2+i/2) {
			t.Fatalf("round %d: %g triangles, want %d", i, *got.Scalar, 2+i/2)
		}
	}
	if st := s.eng.Plans().Stats(); st.Parses != 1 {
		t.Fatalf("%d parses in 100 update+query rounds of one text, want 1", st.Parses)
	}
	if derivation() != first {
		t.Fatal("the triangle plan was derived again across 100 update+query rounds")
	}
}
