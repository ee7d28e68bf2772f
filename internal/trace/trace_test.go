package trace

import (
	"testing"
	"time"
)

func TestTraceSpansAndFinish(t *testing.T) {
	tr := &Trace{ID: 1, Kind: "query", Start: time.Now()}
	sp := tr.Begin("plan")
	time.Sleep(2 * time.Millisecond)
	tr.End(sp)
	tr.SpanAttrInt(sp, "bags", 3)
	open := tr.Begin("execute") // left open: Finish must close it
	tr.Annot("query", "triangle")
	time.Sleep(time.Millisecond)
	total := tr.Finish()

	if tr.TotalUS <= 0 || tr.TotalUS != total.Microseconds() {
		t.Fatalf("TotalUS = %d, Finish returned %v", tr.TotalUS, total)
	}
	spans := tr.Spans
	if len(spans) != 2 {
		t.Fatalf("span count = %d", len(spans))
	}
	if got := spans[sp].DurUS; got < 1000 {
		t.Fatalf("plan phase = %dus, want >= 1000", got)
	}
	if spans[open].DurUS < 0 {
		t.Fatal("open span not closed by Finish")
	}
	if spans[sp].Attrs[0].Key != "bags" || spans[sp].Attrs[0].Val != "3" {
		t.Fatalf("span attrs = %+v", spans[sp].Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	// All of these must be no-ops, not panics.
	sp := tr.Begin("x")
	if sp != -1 {
		t.Fatalf("nil Begin = %d", sp)
	}
	tr.End(sp)
	tr.SpanAttrInt(sp, "k", 1)
	tr.Annot("k", "v")
	if tr.Finish() != 0 {
		t.Fatal("nil trace has a clock")
	}
}
