package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestEventLogEnvelope(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit("snapshot", 0, map[string]any{"dir": "/tmp/x", "tuples": 42})
	l.Emit("slow_query", 7, map[string]any{"total_us": int64(1234)})

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first, second map[string]any
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "snapshot" || first["seq"] != 1.0 || first["ts"] == nil {
		t.Fatalf("first envelope: %v", first)
	}
	if _, has := first["trace_id"]; has {
		t.Fatalf("trace_id 0 should be omitted: %v", first)
	}
	if first["dir"] != "/tmp/x" || first["tuples"] != 42.0 {
		t.Fatalf("fields not flattened: %v", first)
	}
	if second["kind"] != "slow_query" || second["seq"] != 2.0 || second["trace_id"] != 7.0 {
		t.Fatalf("second envelope: %v", second)
	}

	st := l.Stats()
	if !st.Enabled || st.Events != 2 || st.Seq != 2 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEventLogSeqOrder checks the determination-provenance property:
// concurrent emitters produce a file whose line order IS the seq order,
// with no gaps or duplicates. The emitters cycle through the provenance
// kinds (query_provenance per execution, audit_mismatch from the cache
// auditor) alongside plain ticks, so the interleaving the server
// actually produces is what's exercised; per-kind counts must survive
// the interleave intact.
func TestEventLogSeqOrder(t *testing.T) {
	var buf safeBuffer
	l := NewEventLog(&buf)
	kinds := []string{"tick", "query_provenance", "audit_mismatch"}
	const goroutines = 9 // multiple of len(kinds): uniform per-kind totals
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Emit(kinds[g%len(kinds)], uint64(g+1), map[string]any{"i": i})
			}
		}(g)
	}
	wg.Wait()

	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	want := uint64(1)
	byKind := map[string]int{}
	for sc.Scan() {
		var ev struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", want, err)
		}
		if ev.Seq != want {
			t.Fatalf("line %d carries seq %d: file order is not seq order", want, ev.Seq)
		}
		byKind[ev.Kind]++
		want++
	}
	if want-1 != goroutines*perG {
		t.Fatalf("got %d events, want %d", want-1, goroutines*perG)
	}
	for _, k := range kinds {
		if byKind[k] != goroutines/len(kinds)*perG {
			t.Fatalf("kind %s: %d events, want %d (counts %v)",
				k, byKind[k], goroutines/len(kinds)*perG, byKind)
		}
	}
}

// TestEventLogProvenanceKinds pins the wire shape of the two kinds this
// package's consumers grep for (docs/PROVENANCE.md): query_provenance
// carries structured per-relation lineage, audit_mismatch the drift
// attribution; both flatten into the standard envelope.
func TestEventLogProvenanceKinds(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit("query_provenance", 11, map[string]any{
		"fingerprint": "fp1",
		"generation":  uint64(0),
		"cardinality": 3,
		"relations": []map[string]any{
			{"relation": "Edge", "epoch": 4, "wal_seq": 9},
		},
	})
	l.Emit("audit_mismatch", 12, map[string]any{
		"fingerprint":        "fp1",
		"cached_cardinality": 3,
		"actual_cardinality": 4,
		"cardinality_delta":  1,
	})

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var qp struct {
		Kind      string `json:"kind"`
		TraceID   uint64 `json:"trace_id"`
		Relations []struct {
			Relation string `json:"relation"`
			Epoch    uint64 `json:"epoch"`
			WALSeq   uint64 `json:"wal_seq"`
		} `json:"relations"`
	}
	if err := json.Unmarshal(lines[0], &qp); err != nil {
		t.Fatal(err)
	}
	if qp.Kind != "query_provenance" || qp.TraceID != 11 ||
		len(qp.Relations) != 1 || qp.Relations[0].WALSeq != 9 {
		t.Fatalf("query_provenance line: %+v", qp)
	}
	var am struct {
		Kind  string `json:"kind"`
		Delta int    `json:"cardinality_delta"`
	}
	if err := json.Unmarshal(lines[1], &am); err != nil {
		t.Fatal(err)
	}
	if am.Kind != "audit_mismatch" || am.Delta != 1 {
		t.Fatalf("audit_mismatch line: %+v", am)
	}
}

type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func TestEventLogRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	// Each line is ~60 bytes; rotate past 1 KiB, keep 2 files.
	l, err := OpenEventLog(path, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Alternate the provenance kind into the stream: rotation must not
	// care what kinds it splits across files.
	const total = 200
	for i := 0; i < total; i++ {
		kind := "tick"
		if i%2 == 1 {
			kind = "query_provenance"
		}
		l.Emit(kind, 0, map[string]any{"i": i, "pad": "xxxxxxxxxxxxxxxx"})
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after %d events: %+v", total, st)
	}
	if st.Events != total || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// The live file plus at most keep rotations exist, each within the
	// size budget (up to one line of overshoot on the rotation trigger).
	for _, p := range []string{path, path + ".1", path + ".2"} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		if fi.Size() > 1024+256 {
			t.Fatalf("%s is %d bytes, rotation budget blown", p, fi.Size())
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Fatalf("keep=2 but %s.3 exists", path)
	}

	// Sequence numbers keep ascending across the rotation boundary: the
	// newest retained file ends where the live file begins.
	liveSeqs := seqsOf(t, path)
	prevSeqs := seqsOf(t, path+".1")
	if len(liveSeqs) == 0 || len(prevSeqs) == 0 {
		t.Fatal("empty event files after rotation")
	}
	if prevSeqs[len(prevSeqs)-1]+1 != liveSeqs[0] {
		t.Fatalf("seq gap across rotation: ...%d | %d...",
			prevSeqs[len(prevSeqs)-1], liveSeqs[0])
	}
}

func seqsOf(t *testing.T, path string) []uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var ev struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, ev.Seq)
	}
	return out
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit("tick", 0, nil)
	if st := l.Stats(); st.Enabled {
		t.Fatalf("nil log reports enabled: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l2 := NewEventLog(nil); l2 != nil {
		t.Fatal("NewEventLog(nil) should yield a nil (disabled) log")
	}
}

func TestBuildInfoPromLine(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" || bi.Module == "" || bi.Revision == "" {
		t.Fatalf("build info has empty fields: %+v", bi)
	}
	line := bi.PromLine()
	if !strings.HasPrefix(line, "eh_build_info{go_version=") {
		t.Fatalf("prom line %q", line)
	}
	if !strings.HasSuffix(line, "} 1\n") {
		t.Fatalf("prom line %q does not end with value 1", line)
	}
}
