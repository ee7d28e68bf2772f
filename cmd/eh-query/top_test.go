package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emptyheaded/internal/core"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/server"
)

// TestWorkloadTop runs a known query mix against an in-process server
// and reads -top's table: the COUNT and CACHE% columns of each
// fingerprint, and the sort key reaching the server.
func TestWorkloadTop(t *testing.T) {
	eng := core.New()
	eng.LoadGraph("Edge", gen.PowerLaw(150, 900, 2.1, 42))
	srv := server.New(eng, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		tri  = `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
		path = `P(x,z) :- Edge(x,y),Edge(y,z).`
	)
	// Triangle: a miss, then three result-cache hits (75%). Path: two
	// executions that skip the result cache (0%).
	for _, body := range []string{
		`{"query":"` + tri + `"}`, `{"query":"` + tri + `"}`, `{"query":"` + tri + `"}`, `{"query":"` + tri + `"}`,
		`{"query":"` + path + `","no_cache":true,"limit":1}`, `{"query":"` + path + `","no_cache":true,"limit":1}`,
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
	}

	rc := NewRetryClient(ts.Client(), RetryPolicy{MaxAttempts: 1})
	var out bytes.Buffer
	if err := workloadTop(&out, rc, ts.URL, "count", 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "workload: 2 fingerprints, 6 queries observed (3 result hits") {
		t.Fatalf("table:\n%s", out.String())
	}
	if cols := strings.Fields(lines[1]); len(cols) != 7 || cols[0] != "COUNT" || cols[3] != "CACHE%" {
		t.Fatalf("header %q", lines[1])
	}
	for i, want := range []struct{ count, cache, query string }{{"4", "75%", tri}, {"2", "0%", path}} {
		cols := strings.Fields(lines[2+i])
		if len(cols) < 7 || cols[0] != want.count || cols[3] != want.cache || !strings.HasSuffix(lines[2+i], want.query) {
			t.Fatalf("row %d: %q, want COUNT %s CACHE%% %s for %s", i, lines[2+i], want.count, want.cache, want.query)
		}
	}

	if err := workloadTop(&out, rc, ts.URL, "bogus", 20); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad sort key: %v", err)
	}
}
