package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/gen"
)

// oversized is one byte more JSON whitespace than a body may hold: the
// decoder would have to read through all of it before it could say
// anything else about the body.
var oversized = strings.Repeat(" ", maxBodyBytes+1)

// pipelineEndpoints lists every endpoint the pipeline runs, what the
// route table declares for it, and one body it accepts ({dir} stands for
// a scratch snapshot directory).
type pipelineEndpoint struct {
	path   string
	post   bool // other methods are refused
	named  bool // the request addresses a relation by "name"
	admits bool // the work takes a worker slot (the pipeline's gate, or /query's own)
	writes bool // refused while the breaker is open
	timed  bool // the reply carries elapsed_us
	ok     string
}

var pipelineEndpoints = []pipelineEndpoint{
	{"/query", true, false, true, false, true, `{"query":"` + triangleQ + `","no_cache":true}`},
	{"/explain", true, false, true, false, false, `{"query":"` + triangleQ + `"}`},
	{"/relations", false, false, false, false, false, ``},
	{"/load", true, true, true, false, true, `{"name":"T","columns":[[1,2],[2,3]]}`},
	{"/update", true, true, true, true, true, `{"name":"Edge","inserts":[[200,201]]}`},
	{"/compact", true, true, true, false, true, `{"name":"Edge"}`},
	{"/snapshot", true, false, true, false, true, `{"dir":"{dir}"}`},
	{"/restore", true, false, true, false, true, `{"dir":"{dir}"}`},
	{"/stats", false, false, false, false, false, ``},
	// The sweep holds no slot itself; its audits book their own sheds.
	{"/debug/audit", true, false, false, false, true, `{}`},
}

// TestEndpointContract walks every pipeline endpoint through every way a
// request can end before or inside its handler and checks what the
// pipeline promises for all of them: the classified status, an error
// body carrying the record's trace_id, Retry-After on every 503, exactly
// one record in the ring, the endpoint's /stats window moved by exactly
// one, no worker slot left held, and on success an elapsed_us that is the
// record's own clock reading.
func TestEndpointContract(t *testing.T) {
	type outcome struct {
		name string
		code int
		// applies reports whether an endpoint declared this way can end so.
		applies func(ep pipelineEndpoint) bool
		method  string
		body    func(ok string) io.Reader
		// arrange puts the server in the state the case needs and returns
		// its undo.
		arrange func(t *testing.T, s *Server) func()
	}
	text := func(s string) func(string) io.Reader {
		return func(string) io.Reader { return strings.NewReader(s) }
	}
	accepted := func(ok string) io.Reader { return strings.NewReader(ok) }
	always := func(pipelineEndpoint) bool { return true }
	nothing := func(*testing.T, *Server) func() { return func() {} }
	outcomes := []outcome{
		{"ok", http.StatusOK, always, http.MethodPost, accepted, nothing},
		{"wrong method", http.StatusMethodNotAllowed,
			func(ep pipelineEndpoint) bool { return ep.post }, http.MethodGet, accepted, nothing},
		{"malformed JSON", http.StatusBadRequest, always, http.MethodPost, text(`{"name":`), nothing},
		{"oversized body", http.StatusRequestEntityTooLarge, always, http.MethodPost,
			text(oversized), nothing}, // a strings.Reader: the length is declared
		// Reading 64 MiB through the decoder takes seconds under -race, and
		// the bounded read is one line shared by all: once is enough.
		{"oversized chunked body", http.StatusRequestEntityTooLarge,
			func(ep pipelineEndpoint) bool { return ep.path == "/load" }, http.MethodPost,
			func(string) io.Reader { return struct{ io.Reader }{strings.NewReader(oversized)} }, nothing},
		{"missing name", http.StatusBadRequest,
			func(ep pipelineEndpoint) bool { return ep.named }, http.MethodPost, text(`{}`), nothing},
		{"admission shed", http.StatusServiceUnavailable,
			func(ep pipelineEndpoint) bool { return ep.admits }, http.MethodPost, accepted,
			func(t *testing.T, s *Server) func() {
				release, err := s.adm.acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return release
			}},
		{"breaker open", http.StatusServiceUnavailable,
			func(ep pipelineEndpoint) bool { return ep.writes }, http.MethodPost, accepted,
			func(_ *testing.T, s *Server) func() {
				s.brk.open.Store(true)
				return func() { s.brk.open.Store(false) }
			}},
		{"handler panic", http.StatusInternalServerError, always, http.MethodPost, accepted,
			func(*testing.T, *Server) func() {
				return fault.Enable(fault.New(1, fault.Rule{Point: "server.handler", Kind: fault.PanicKind, OnCall: 1}))
			}},
	}

	for _, ep := range pipelineEndpoints {
		for _, oc := range outcomes {
			if !oc.applies(ep) {
				continue
			}
			t.Run(strings.ReplaceAll(ep.path[1:], "/", "_")+"/"+oc.name, func(t *testing.T) {
				s, _ := newTestService(t, Config{Workers: 1, QueueWait: 5 * time.Millisecond})
				defer s.Close()
				h := s.Handler()
				dir := filepath.Join(t.TempDir(), "snap")
				if ep.path == "/restore" { // something to restore
					if _, err := s.eng.Snapshot(dir); err != nil {
						t.Fatal(err)
					}
				}
				undo := oc.arrange(t, s)

				ring0, win0 := s.obs.Ring.Stats().Total, s.StatsSnapshot().Endpoints[ep.path]
				panics0 := s.res.recoveredPanics.Load()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(oc.method, ep.path, oc.body(strings.ReplaceAll(ep.ok, "{dir}", dir))))
				undo()
				if w.Code != oc.code {
					t.Fatalf("status %d, want %d: %s", w.Code, oc.code, w.Body)
				}

				// One record, of this endpoint's kind, telling the reply's story.
				if got := s.obs.Ring.Stats().Total - ring0; got != 1 {
					t.Fatalf("ring grew by %d records, want 1", got)
				}
				rec := s.obs.Ring.Recent(1)[0]
				if rec.Kind != ep.path[1:] || (rec.Error != "") != (oc.code != http.StatusOK) {
					t.Fatalf("record kind %q error %q for status %d", rec.Kind, rec.Error, w.Code)
				}
				if rec.TotalUS != rec.Elapsed.Microseconds() {
					t.Fatalf("two clocks: total_us %d, elapsed %v", rec.TotalUS, rec.Elapsed)
				}
				var reply struct {
					TraceID   *uint64 `json:"trace_id"`
					Error     string  `json:"error"`
					ElapsedUS *int64  `json:"elapsed_us"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
					t.Fatalf("reply is not a JSON object: %v: %s", err, w.Body)
				}
				if reply.TraceID != nil && *reply.TraceID != rec.ID {
					t.Fatalf("reply trace_id %d, record %d", *reply.TraceID, rec.ID)
				}
				if oc.code != http.StatusOK {
					if reply.TraceID == nil || reply.Error == "" || reply.Error != rec.Error {
						t.Fatalf("error body %s does not carry the record's id and error %q", w.Body, rec.Error)
					}
				} else if ep.timed && (reply.ElapsedUS == nil || *reply.ElapsedUS != rec.TotalUS) {
					t.Fatalf("reply elapsed_us %v, record total_us %d: %s", reply.ElapsedUS, rec.TotalUS, w.Body)
				}
				if (oc.code == http.StatusServiceUnavailable) != (w.Header().Get("Retry-After") != "") {
					t.Fatalf("status %d with Retry-After %q", w.Code, w.Header().Get("Retry-After"))
				}

				// The endpoint's counters and retained records read that record, once.
				win := s.StatsSnapshot().Endpoints[ep.path]
				wantErrs := int64(0)
				if oc.code != http.StatusOK {
					wantErrs = 1
				}
				if win.Requests-win0.Requests != 1 || win.Errors-win0.Errors != wantErrs {
					t.Fatalf("endpoint stats moved by %d requests, %d errors; want 1, %d",
						win.Requests-win0.Requests, win.Errors-win0.Errors, wantErrs)
				}
				if want := float64(rec.TotalUS); win0.Requests == 0 && win.MaxUS != want {
					t.Fatalf("endpoint max %gus is not the record's %gus", win.MaxUS, want)
				}

				// Nothing of the request is left behind.
				if got := s.adm.stats().Active; got != 0 {
					t.Fatalf("%d worker slots still held", got)
				}
				wantPanics := int64(0)
				if oc.name == "handler panic" {
					wantPanics = 1
				}
				if got := s.res.recoveredPanics.Load() - panics0; got != wantPanics {
					t.Fatalf("%d panics booked, want %d", got, wantPanics)
				}
				hz := httptest.NewRecorder()
				h.ServeHTTP(hz, httptest.NewRequest(http.MethodGet, "/healthz", nil))
				if hz.Code != http.StatusOK {
					t.Fatalf("/healthz after the request: %d", hz.Code)
				}
			})
		}
	}
}

// TestLoadRejectsEmptyColumns: a relation needs at least one attribute;
// "columns":[] used to register an arity-0, cardinality-1 relation.
func TestLoadRejectsEmptyColumns(t *testing.T) {
	s, ts := newTestService(t, Config{})
	defer s.Close()
	if code, body := postJSON(t, ts.URL+"/load", map[string]any{"name": "E", "columns": [][]uint32{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty columns: %d %s", code, body)
	}
	if _, ok := s.eng.DB.Relation("E"); ok {
		t.Fatal("the refused load registered a relation")
	}
}

// FuzzEndpointBodies throws arbitrary bodies at every pipeline endpoint
// of one long-lived server: whatever arrives, the answer is one of
// errStatus's classified codes and never a 500, liveness holds, and no
// worker slot stays held. (The oversized body is TestEndpointContract's:
// a 64 MiB seed would make every mutation of it as slow.)
func FuzzEndpointBodies(f *testing.F) {
	for _, ep := range pipelineEndpoints {
		f.Add(ep.path, []byte(strings.ReplaceAll(ep.ok, `"dir":"{dir}"`, "")))
		f.Add(ep.path, []byte(`{"name":`))
		f.Add(ep.path, []byte(`{}`))
	}
	for _, body := range []string{
		`{"name":"E","columns":[]}`,
		`{"name":"R","columns":[[1,2,3],[4]]}`,
		`{"name":"R","columns":[[1],[2]],"arity":3}`,
		`{"name":"R","tuples":[[1,2],[3]],"arity":2}`,
		`{"name":"R","tuples":[[]],"arity":0}`,
		`{"name":"R","tuples":[],"arity":2,"anns":[1.5],"op":"nope"}`,
		`{"name":"R","edges":[[1,2],[2,1]],"undirected":true}`,
		`{"name":"R","columns":[[4294967295],[0]]}`,
		`{"name":"R","tuples":[],"arity":2000000000}`,
	} {
		f.Add("/load", []byte(body))
	}
	for _, body := range []string{
		`{"name":"Edge","inserts":[[1,2],[3]]}`,
		`{"name":"Edge","inserts":[[]]}`,
		`{"name":"Edge","inserts":[[1,2]],"insert_columns":[[1],[2]]}`,
		`{"name":"Edge","insert_columns":[[1,2],[3]]}`,
		`{"name":"Edge","deletes":[[1,2,3]]}`,
		`{"name":"Nope","deletes":[[1,2]]}`,
		`{"name":"Wide","inserts":[[` + strings.Repeat("0,", 64) + `0]]}`,
		`{"name":"New","inserts":[[1,2]],"anns":[0.5],"op":"sum"}`,
	} {
		f.Add("/update", []byte(body))
	}
	for _, body := range []string{
		`{"query":"` + pathQ + `","limit":9223372036854775807}`,
		`{"query":"` + pathQ + `","limit":-1,"columns":true}`,
		`{"query":"` + degreeQ + `","analyze":true,"provenance":true}`,
		`{"query":"TC(;w:long) :- Edge(x,"}`,
		`{"query":"Q(x,y) :- Nope(x,y)."}`,
		`{"query":7}`,
	} {
		f.Add("/query", []byte(body))
	}

	// One server takes many bodies in a row, so what an earlier one loaded,
	// updated or restored is there for the next; it is replaced every few
	// thousand requests, before what hostile loads pile up outgrows the
	// machine. The deadline keeps a mutated query from running for minutes.
	var s *Server
	var h http.Handler
	served := 0
	dataDir := filepath.Join(f.TempDir(), "snap")
	f.Cleanup(func() { s.Close() })
	fresh := func() {
		if s != nil {
			s.Close()
		}
		eng := core.New()
		eng.LoadGraph("Edge", gen.PowerLaw(150, 900, 2.1, 42))
		s = New(eng, Config{DataDir: dataDir, QueryDeadline: 200 * time.Millisecond})
		h = s.Handler()
	}
	fresh()
	paths := map[string]bool{}
	for _, ep := range pipelineEndpoints {
		paths[ep.path] = true
	}
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		if !paths[path] {
			t.Skip("not a pipeline endpoint")
		}
		// The server reads and writes the files a body names; keep the
		// fuzzer inside the scratch data directory.
		var keys map[string]json.RawMessage
		if json.Unmarshal(body, &keys) == nil {
			for k := range keys {
				if strings.EqualFold(k, "dir") || strings.EqualFold(k, "path") {
					t.Skip("names a file")
				}
			}
		}
		if served++; served%4096 == 0 {
			fresh()
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout, statusClientClosedRequest:
		default:
			t.Fatalf("POST %s %q: unclassified status %d: %s", path, body, w.Code, w.Body)
		}
		if got := s.adm.stats().Active; got != 0 {
			t.Fatalf("POST %s %q left %d worker slots held", path, body, got)
		}
		hz := httptest.NewRecorder()
		h.ServeHTTP(hz, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if hz.Code != http.StatusOK {
			t.Fatalf("/healthz after POST %s %q: %d", path, body, hz.Code)
		}
	})
}
