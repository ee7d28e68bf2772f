package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/gen"
)

// slowDB returns a database whose 4-clique count takes long enough
// (about half a second on a 2-worker run) that a mid-flight
// cancellation is observable, and the query that makes it sweat. A
// count, not a listing: the full loop nest runs without materializing a
// giant result. The graph is sized with a wide margin over the 200ms
// floor TestCancelMidFlight needs, so a faster engine or machine does
// not turn that test into a skip.
func slowDB() (*DB, string) {
	g := gen.PowerLaw(4000, 80000, 2.1, 7)
	db := NewDB()
	db.AddGraph("Edge", g, nil)
	return db, `K4(;w:long) :- Edge(a,b),Edge(a,c),Edge(a,d),Edge(b,c),Edge(b,d),Edge(c,d); w=<<COUNT(*)>>.`
}

func runCtx(t *testing.T, db *DB, query string, ctx context.Context, par int) error {
	t.Helper()
	_, err := runWith(t, db, query, Options{Parallelism: par}, RunParams{Ctx: ctx})
	return err
}

// A context cancelled before the run starts stops the loop nest at its
// first per-value check.
func TestCancelBeforeRun(t *testing.T) {
	db, q := slowDB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	err := runCtx(t, db, q, ctx, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("pre-cancelled run took %v", d)
	}
}

// A context cancelled mid-flight stops the run within the cooperative
// stop-check interval — the dropped-client contract.
func TestCancelMidFlight(t *testing.T) {
	db, q := slowDB()
	// Baseline: the uncancelled query must be genuinely slow, or the
	// cancellation below proves nothing.
	t0 := time.Now()
	if err := runCtx(t, db, q, context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)
	if full < 200*time.Millisecond {
		t.Skipf("baseline query too fast (%v) to observe cancellation", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 = time.Now()
	err := runCtx(t, db, q, ctx, 2)
	d := time.Since(t0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if d > full/2 {
		t.Fatalf("cancelled run took %v of a %v baseline — stop flag not honored", d, full)
	}
}

// A context deadline maps to ErrTimeout, not ErrCanceled.
func TestCtxDeadlineIsTimeout(t *testing.T) {
	db, q := slowDB()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := runCtx(t, db, q, ctx, 2)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// An injected worker panic surfaces as ErrExecPanic — the process (and
// the test binary) must survive, and the next run must succeed.
func TestWorkerPanicIsolated(t *testing.T) {
	for _, par := range []int{1, 4} {
		in := fault.New(1, fault.Rule{Point: "exec.worker", Kind: fault.PanicKind, OnCall: 1})
		restore := fault.Enable(in)
		db, q := slowDB()
		prog, err := datalog.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunProgram(db, prog, Options{Parallelism: par})
		if !errors.Is(err, ErrExecPanic) {
			restore()
			t.Fatalf("par=%d: err = %v, want ErrExecPanic", par, err)
		}
		restore()
		// Fault exhausted and disabled: the engine still serves.
		if _, err := runWith(t, db, `P(x,z) :- Edge(x,y),Edge(y,z).`, Options{Parallelism: par}, RunParams{Limit: 10}); err != nil {
			t.Fatalf("par=%d: run after recovered panic: %v", par, err)
		}
	}
}
