package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"emptyheaded/internal/fault"
	"emptyheaded/internal/obs"
)

// serveQuery drives /query through the handler stack in process, so a
// request whose client has hung up still leaves a readable response.
func serveQuery(ctx context.Context, h http.Handler, req QueryRequest) (int, []byte) {
	body, _ := json.Marshal(req)
	hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, hr)
	return w.Code, w.Body.Bytes()
}

// TestQueryExitPaths walks every way out of handleQuery once and checks
// the contract of the one deferred finish: the request's record is in
// the ring under the response's trace_id exactly once, the latency
// histogram moves by one, the error counter by one exactly when the
// reply is not a 200, and — where a fingerprint was resolved — the route
// counters book exactly one request on exactly one route. A hit's
// lineage is the fill's, under the hit's id.
func TestQueryExitPaths(t *testing.T) {
	// triangleQ under other variable names: same fingerprint, new text.
	const triangleQ2 = `TC(;w:long) :- Edge(a,b),Edge(b,c),Edge(a,c); w=<<COUNT(*)>>.`
	plain := func(q string) QueryRequest { return QueryRequest{Query: q} }
	noCache := func(q string) QueryRequest { return QueryRequest{Query: q, NoCache: true} }
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	slow := &fault.Rule{Point: "exec.worker", Kind: fault.Latency, OnCall: 1, Times: -1, Sleep: 40 * time.Millisecond}

	for _, tc := range []struct {
		name     string
		cfg      Config
		prime    []QueryRequest // served before the request under test
		holdSlot bool           // occupy the only worker slot during the request
		ctx      context.Context
		fault    *fault.Rule
		req      QueryRequest

		code      int
		route     string // "" = no fingerprint resolved: no route counter may move
		cancelled bool
		hitOf     int // index into prime of the fill whose lineage a hit must carry, else -1
	}{
		{name: "parse error", req: plain(`TC(;w:long) :- Edge(x,`), code: http.StatusBadRequest, hitOf: -1},
		{name: "unknown relation", req: plain(`Q(x,y) :- Nope(x,y).`), code: http.StatusBadRequest, hitOf: -1},
		{name: "iteration count above the cap", req: plain("S(x;y:int) :- Edge(0,x); y=1.\nS(x;y:int)*[i=1000000000] :- Edge(w,x),S(w); y=<<MIN(w)>>+1."),
			code: http.StatusBadRequest, hitOf: -1},
		{name: "admission shed", cfg: Config{Workers: 1, QueueWait: 5 * time.Millisecond}, holdSlot: true,
			req: noCache(triangleQ), code: http.StatusServiceUnavailable, hitOf: -1},
		{name: "admission shed, known text", cfg: Config{Workers: 1, QueueWait: 5 * time.Millisecond}, holdSlot: true,
			prime: []QueryRequest{noCache(triangleQ)}, req: plain(triangleQ),
			code: http.StatusServiceUnavailable, route: obs.RouteMiss, hitOf: -1},
		{name: "deadline", cfg: Config{QueryDeadline: 30 * time.Millisecond}, fault: slow,
			req: noCache(pathQ), code: http.StatusGatewayTimeout, route: obs.RouteMiss, cancelled: true, hitOf: -1},
		{name: "client cancel", prime: []QueryRequest{noCache(triangleQ)}, ctx: cancelled,
			req: plain(triangleQ), code: statusClientClosedRequest, route: obs.RouteMiss, cancelled: true, hitOf: -1},
		{name: "exec panic", fault: &fault.Rule{Point: "exec.worker", Kind: fault.PanicKind, OnCall: 1},
			req: noCache(triangleQ), code: http.StatusInternalServerError, route: obs.RouteMiss, hitOf: -1},
		{name: "fast-path hit", prime: []QueryRequest{plain(triangleQ)}, req: plain(triangleQ),
			code: http.StatusOK, route: obs.RouteResultHit, hitOf: 0},
		{name: "admitted result hit", prime: []QueryRequest{plain(triangleQ)}, req: plain(triangleQ2),
			code: http.StatusOK, route: obs.RouteResultHit, hitOf: 0},
		{name: "plan hit", prime: []QueryRequest{noCache(triangleQ)}, req: noCache(triangleQ),
			code: http.StatusOK, route: obs.RoutePlanHit, hitOf: -1},
		{name: "miss", req: plain(triangleQ), code: http.StatusOK, route: obs.RouteMiss, hitOf: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestService(t, tc.cfg)
			defer s.Close()
			h := s.Handler()
			var primed []uint64
			for _, p := range tc.prime {
				code, body := serveQuery(context.Background(), h, p)
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil || code != http.StatusOK {
					t.Fatalf("prime %+v: %d %s", p, code, body)
				}
				primed = append(primed, qr.TraceID)
			}
			if tc.holdSlot {
				release, err := s.adm.acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer release()
			}
			if tc.fault != nil {
				defer fault.Enable(fault.New(1, *tc.fault))()
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}

			counts := s.obs.Kinds["query"]
			routes := func() map[string]int64 {
				m := map[string]int64{}
				for _, rt := range obs.QueryRoutes {
					m[rt] = s.obs.Routes[rt].Load()
				}
				return m
			}
			ring0, hist0, errs0, routes0 := s.obs.Ring.Stats().Total, counts.Latency.Snapshot().Count, counts.Errors.Load(), routes()
			code, body := serveQuery(ctx, h, tc.req)
			if code != tc.code {
				t.Fatalf("status %d, want %d: %s", code, tc.code, body)
			}
			var reply struct {
				TraceID uint64 `json:"trace_id"`
				Error   string `json:"error"`
			}
			if err := json.Unmarshal(body, &reply); err != nil || reply.TraceID == 0 {
				t.Fatalf("response carries no trace_id: %s", body)
			}

			// One record, retrievable, telling the same story as the response.
			if got := s.obs.Ring.Stats().Total - ring0; got != 1 {
				t.Fatalf("ring grew by %d records, want 1", got)
			}
			rec, ok := s.obs.Ring.Get(reply.TraceID)
			if !ok || rec.Kind != "query" || rec.Query != tc.req.Query {
				t.Fatalf("record %d: %+v (retained %v)", reply.TraceID, rec, ok)
			}
			if (rec.Error != "") != (code != http.StatusOK) || rec.Cancelled != tc.cancelled {
				t.Fatalf("record outcome error=%q cancelled=%v for status %d", rec.Error, rec.Cancelled, code)
			}
			if rec.TotalUS != rec.Elapsed.Microseconds() {
				t.Fatalf("two clocks: total_us %d, elapsed %v", rec.TotalUS, rec.Elapsed)
			}
			if code == http.StatusOK {
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil || qr.ElapsedUS != rec.TotalUS {
					t.Fatalf("response elapsed_us %d, record total_us %d (%v)", qr.ElapsedUS, rec.TotalUS, err)
				}
			}
			if got := counts.Latency.Snapshot().Count - hist0; got != 1 {
				t.Fatalf("query histogram moved by %d, want 1", got)
			}
			wantErrs := int64(0)
			if code != http.StatusOK {
				wantErrs = 1
			}
			if got := counts.Errors.Load() - errs0; got != wantErrs {
				t.Fatalf("query error counter moved by %d, want %d", got, wantErrs)
			}

			// The route counters book it once, on one route — or not at all.
			moved := routes()
			for rt := range moved {
				moved[rt] -= routes0[rt]
			}
			want := map[string]int64{obs.RouteResultHit: 0, obs.RoutePlanHit: 0, obs.RouteMiss: 0}
			if tc.route != "" {
				want[tc.route] = 1
			}
			if (rec.Fingerprint != "") != (tc.route != "") || !reflect.DeepEqual(moved, want) {
				t.Fatalf("fingerprint %q: route counters moved %v, want %v", rec.Fingerprint, moved, want)
			}

			// A hit's lineage is the fill's, under the hit's id, and shares
			// its relations instead of cloning them.
			if tc.hitOf >= 0 {
				fill, _ := s.obs.Ring.Get(primed[tc.hitOf])
				var tr struct {
					Provenance *obs.Lineage `json:"provenance"`
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/debug/trace/%d", reply.TraceID), nil))
				if err := json.Unmarshal(rr.Body.Bytes(), &tr); err != nil || rr.Code != http.StatusOK || tr.Provenance == nil {
					t.Fatalf("/debug/trace/%d: %d %s", reply.TraceID, rr.Code, rr.Body)
				}
				got := *tr.Provenance
				if !got.Cached || got.TraceID != reply.TraceID {
					t.Fatalf("hit lineage not under the hit's id with cached:true: %+v", got)
				}
				want := *fill.Lineage
				want.TraceID, want.Cached, want.At = got.TraceID, true, got.At
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hit lineage %+v\nis not the fill's %+v", got, want)
				}
				if rec.Lineage != fill.Lineage {
					t.Fatal("hit record holds a copy of the fill-time lineage, not the lineage itself")
				}
			} else if code == http.StatusOK && (rec.Lineage == nil || rec.Cached || rec.Lineage.TraceID != reply.TraceID) {
				t.Fatalf("executed request's lineage: %+v", rec.Lineage)
			}
		})
	}
}

// hitPathAllocBudget is the measured cost of one result-cache hit
// through the handler stack (request and recorder construction
// included), with the record ring and every lifetime counter on. The
// spine must not exceed it. race_test.go raises it by what the race
// detector's instrumentation adds.
var hitPathAllocBudget = 38

// TestHitPathAllocations guards the path where instrumentation is
// proportionally largest — a ~7µs cached serve. Allocation counts are
// deterministic, so this runs in tier-1; the spine's cost in time is the
// benchmark's trace.overhead_frac.
func TestHitPathAllocations(t *testing.T) {
	s, _ := newTestService(t, Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	body, _ := json.Marshal(QueryRequest{Query: triangleQ})
	hits := s.obs.Routes[obs.RouteResultHit]
	hits0 := hits.Load()
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // the fill
	const runs = 500
	got := testing.AllocsPerRun(runs, serve)
	if hits := hits.Load() - hits0; hits != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d serves were result-cache hits", hits, runs+1)
	}
	t.Logf("result-cache hit: %v allocs/op (budget %d)", got, hitPathAllocBudget)
	if got > float64(hitPathAllocBudget) {
		t.Fatalf("result-cache hit costs %v allocs/op, budget %d", got, hitPathAllocBudget)
	}
}
