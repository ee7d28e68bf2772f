package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside internal/* is instrumented). Spans of one op
// share OpID; Parent is the id of the span that caused this one, 0 for an
// op's root span. Times are microseconds since the trace began.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	OpID    int     `json:"op_id"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so one replay loop serves the traced and the untraced blocks.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, OpID: op, Name: name,
		StartUS: us(start.Sub(t.t0)), EndUS: us(end.Sub(t.t0)),
	})
	return id
}

// reserve allocates the id of a span whose end is not known yet, so its
// children can name it as parent; finish fills the times in.
func (t *tracer) reserve(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: op, Name: name})
	return len(t.spans)
}

func (t *tracer) finish(id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans[id-1].StartUS = us(start.Sub(t.t0))
	t.spans[id-1].EndUS = us(end.Sub(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, edge), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.EndUS - s.StartUS - covered
	}
	return self
}

// traceFile is what finishTrace leaves in benchmark/out/trace_<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Ops        int                `json:"ops"`
	SelfTimeUS map[string]float64 `json:"self_time_us"`
	Spans      []span             `json:"spans"`
}

// finishTrace ends a traced pass: the spans go to
// benchmark/out/trace_<workload>.json, and the medians of the untraced
// and the traced ops' latencies give the tracing overhead.
func finishTrace(cfg runConfig, t *tracer, ops int, plain, traced []float64, res *runResult) error {
	p, tm := median(plain), median(traced)
	res.set("trace.overhead_frac", (tm-p)/p, "ratio")
	res.Samples["trace.overhead_frac"] = len(traced)
	dir := filepath.Join(cfg.Root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: cfg.Workload, Seed: cfg.Seed, Ops: ops, SelfTimeUS: t.selfTimes(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+cfg.Workload+".json"), b, 0o644)
}
