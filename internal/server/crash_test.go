package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/wal"
)

// TestMain doubles this test binary as the crash-test server child:
// with EH_CRASH_CHILD set it serves an engine with a WAL (fsync=always)
// instead of running tests, so TestKillAndRestartDurability can SIGKILL
// a real process mid-serve.
func TestMain(m *testing.M) {
	if os.Getenv("EH_CRASH_CHILD") == "1" {
		runCrashChild()
		return
	}
	os.Exit(m.Run())
}

func crashSeedColumns() [][]uint32 {
	return [][]uint32{{0, 1, 0, 3}, {1, 2, 2, 4}}
}

func runCrashChild() {
	eng := core.New()
	if err := eng.AddRelationColumns("Edge", crashSeedColumns(), nil, semiring.None); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	if _, err := eng.OpenWAL(core.WALConfig{Dir: os.Getenv("EH_WAL_DIR"), Sync: wal.SyncAlways}); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	// Publish the bound address atomically (write + rename) so the
	// parent never reads a half-written file.
	addrFile := os.Getenv("EH_ADDR_FILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	_ = http.Serve(ln, New(eng, Config{}).Handler())
}

// startCrashChild launches the child and waits for it to serve.
func startCrashChild(t *testing.T, walDir, addrFile string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"EH_CRASH_CHILD=1",
		"EH_WAL_DIR="+walDir,
		"EH_ADDR_FILE="+addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("child server never came up")
		}
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			url := "http://" + string(addr)
			if resp, err := http.Get(url + "/healthz"); err == nil {
				resp.Body.Close()
				return cmd, url
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// comparableResult reduces a query response to the bytes that must
// match across runs (order is deterministic; timings are not).
func comparableResult(t *testing.T, qr QueryResponse) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Cardinality int       `json:"cardinality"`
		Tuples      [][]int64 `json:"tuples"`
		Anns        []float64 `json:"anns"`
	}{qr.Cardinality, qr.Tuples, qr.Anns})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKillAndRestartDurability is the acceptance crash test: apply
// update batches with fsync=always against a real server process,
// SIGKILL it, restart on the same WAL dir — every acknowledged batch is
// visible and query results match an uninterrupted run byte-for-byte.
func TestKillAndRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	walDir := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")

	child, url := startCrashChild(t, walDir, addrFile)
	defer child.Process.Kill()

	// Reference engine mirrors every acknowledged batch in-process.
	ref := core.New()
	if err := ref.AddRelationColumns("Edge", crashSeedColumns(), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	post := func(req UpdateRequest) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(url+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			t.Fatalf("update %+v: %d %s", req, resp.StatusCode, buf.String())
		}
	}
	batches := []UpdateRequest{
		{Name: "Edge", Inserts: [][]uint32{{1, 3}, {1, 4}}},
		{Name: "Edge", Deletes: [][]uint32{{0, 2}}},
		{Name: "Edge", Inserts: [][]uint32{{5, 6}, {6, 7}, {5, 7}}},
		{Name: "Edge", Deletes: [][]uint32{{5, 6}}, Inserts: [][]uint32{{0, 2}}},
	}
	for _, b := range batches {
		post(b)
		// Mirror into the reference engine (rows → columns).
		ub := core.UpdateBatch{Rel: b.Name}
		if len(b.Inserts) > 0 {
			ub.InsCols = [][]uint32{make([]uint32, len(b.Inserts)), make([]uint32, len(b.Inserts))}
			for i, r := range b.Inserts {
				ub.InsCols[0][i], ub.InsCols[1][i] = r[0], r[1]
			}
		}
		if len(b.Deletes) > 0 {
			ub.DelCols = [][]uint32{make([]uint32, len(b.Deletes)), make([]uint32, len(b.Deletes))}
			for i, r := range b.Deletes {
				ub.DelCols[0][i], ub.DelCols[1][i] = r[0], r[1]
			}
		}
		if _, err := ref.Update(ub); err != nil {
			t.Fatal(err)
		}
	}

	// SIGKILL: no drain, no snapshot, no WAL close.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	child2, url2 := startCrashChild(t, walDir, addrFile)
	defer child2.Process.Kill()

	queries := []string{
		`L(x,y) :- Edge(x,y).`,
		`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`,
		`In(y;w:long) :- Edge(x,y); w=<<COUNT(x)>>.`,
	}
	refSrv := New(ref, Config{})
	for _, q := range queries {
		body, _ := json.Marshal(QueryRequest{Query: q, Limit: 10000})
		resp, err := http.Post(url2+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSrv.runQuery(context.Background(), &QueryRequest{Query: q, Limit: 10000}, 10000, &obs.Request{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Scalar != nil || want.Scalar != nil {
			if got.Scalar == nil || want.Scalar == nil || *got.Scalar != *want.Scalar {
				t.Fatalf("query %q: scalar %v vs reference %v", q, got.Scalar, want.Scalar)
			}
			continue
		}
		if g, w := comparableResult(t, got), comparableResult(t, want); !bytes.Equal(g, w) {
			t.Fatalf("query %q diverges after kill+restart:\n got %s\nwant %s", q, g, w)
		}
	}
}
