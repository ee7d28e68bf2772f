package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/semiring"
)

// The embedded workloads measure library users: one caller hands query
// texts to Engine.Run of a core.Engine (the engine behind
// emptyheaded.Engine, whose Run is a one-line forward to it), which parses
// and plans on every call.

// edgeListText renders the graph as the "src dst" text the engine and
// the server load; ids come out as their own dictionary codes.
func edgeListText(g *graphData) []byte {
	var b bytes.Buffer
	for i := range g.Src {
		b.WriteString(strconv.Itoa(int(g.Src[i])))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(int(g.Dst[i])))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// embeddedEnv holds the generated inputs of an in-process engine.
type embeddedEnv struct {
	text      []byte
	prunedSrc []uint32 // nil when no query reads EdgeP
	prunedDst []uint32
	queries   []engineQuery
}

func newEmbeddedEnv(in *inputs, queries []engineQuery, needPruned bool) *embeddedEnv {
	env := &embeddedEnv{text: edgeListText(in.g), queries: queries}
	if needPruned {
		env.prunedSrc, env.prunedDst = in.g.prunedColumns()
	}
	return env
}

// load builds an engine over the generated inputs: Edge from the
// edge-list text, EdgeP from columns. The engine takes ownership of the
// columns, so it gets copies.
func (env *embeddedEnv) load() (*core.Engine, error) {
	e := core.New()
	if err := e.LoadEdgeList("Edge", bytes.NewReader(env.text), true); err != nil {
		return nil, err
	}
	if env.prunedSrc != nil {
		cols := [][]uint32{slices.Clone(env.prunedSrc), slices.Clone(env.prunedDst)}
		if err := e.AddRelationColumns("EdgeP", cols, nil, semiring.None); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// round is one op: every query of the workload through Engine.Run, each
// answer checked. The returned latency is the time inside Engine.Run.
func (env *embeddedEnv) round(e *core.Engine) (time.Duration, error) {
	var lat time.Duration
	for _, q := range env.queries {
		t0 := time.Now()
		res, err := e.Run(q.Text)
		lat += time.Since(t0)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", q.Name, err)
		}
		if err := q.Check(res); err != nil {
			return lat, fmt.Errorf("%s: %w", q.Name, err)
		}
	}
	return lat, nil
}

// tracedRound is round with each layer called separately and wrapped in
// a span: parse, plan (exec.Prepare: hypergraph, GHD, LP, attribute
// order) and run (Prepared.RunWith on the engine's own database, as
// Engine.Run does).
func (env *embeddedEnv) tracedRound(e *core.Engine, tr *tracer, op int) (time.Duration, error) {
	start := time.Now()
	root := tr.reserve("op", 0, op)
	var lat time.Duration
	for _, q := range env.queries {
		t0 := time.Now()
		prog, err := datalog.Parse(q.Text)
		t1 := time.Now()
		if err != nil {
			return lat, fmt.Errorf("%s: %w", q.Name, err)
		}
		pr, err := exec.Prepare(e.DB, prog, e.Opts)
		t2 := time.Now()
		if err != nil {
			return lat, fmt.Errorf("%s: %w", q.Name, err)
		}
		res, err := pr.RunWith(e.DB, exec.RunParams{})
		t3 := time.Now()
		lat += t3.Sub(t0)
		tr.add("datalog.parse", root, op, t0, t1)
		tr.add("ghd.plan", root, op, t1, t2)
		tr.add("exec.run", root, op, t2, t3)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", q.Name, err)
		}
		if err := q.Check(res); err != nil {
			return lat, fmt.Errorf("%s: %w", q.Name, err)
		}
	}
	tr.finish(root, start, time.Now())
	return lat, nil
}

// closedLoop repeats op for d and collects the latencies of the ops that
// succeed; a failing op counts as failed and is reported once.
func closedLoop(d time.Duration, op func() (time.Duration, error), res *runResult) *windowStats {
	w := &windowStats{}
	start := time.Now()
	for time.Since(start) < d {
		lat, err := op()
		if err != nil {
			if w.Failed == 0 {
				res.note("failed op: " + err.Error())
			}
			w.Failed++
			continue
		}
		w.add(lat, start)
	}
	w.Elapsed = time.Since(start)
	return w
}

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median.
const setupRepeats = 7

func runEmbedded(cfg runConfig, in *inputs, res *runResult) error {
	queries := patternQueries(in.ans)
	if in.def.Analytics {
		queries = analyticsQueries(in.ans)
	}
	env := newEmbeddedEnv(in, queries, !in.def.Analytics)

	// Set-up: generated inputs → first correct answers (cold round, so
	// every index the queries need is built).
	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	var e *core.Engine
	var setups []float64
	for range repeats {
		t0 := time.Now()
		eng, err := env.load()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if _, err := env.round(eng); err != nil {
			res.note("set-up: " + err.Error())
			res.Failed++
		}
		res.Attempted++
		setups = append(setups, time.Since(t0).Seconds())
		e = eng
	}
	closedLoop(cfg.warmup(), func() (time.Duration, error) { return env.round(e) }, res)

	if !cfg.Trace {
		w := closedLoop(cfg.window(), func() (time.Duration, error) { return env.round(e) }, res)
		res.Attempted += w.attempted()
		res.Failed += w.Failed
		res.set("setup_s", median(setups), "s")
		w.report(res)
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return err
		}
		res.set("peak_rss_mb", rss, "MB")
		return nil
	}

	// Traced pass: blocks of untraced ops (Engine.Run) alternate with
	// blocks of traced ops, so drift in the machine hits both alike.
	tr := newTracer()
	var plain, traced []float64
	op := 0
	deadline := time.Now().Add(cfg.window())
	for time.Now().Before(deadline) {
		for range replayBlock {
			lat, err := env.round(e)
			res.Attempted++
			if err != nil {
				res.Failed++
				continue
			}
			plain = append(plain, ms(lat))
		}
		for range replayBlock {
			op++
			lat, err := env.tracedRound(e, tr, op)
			res.Attempted++
			if err != nil {
				res.Failed++
				continue
			}
			traced = append(traced, ms(lat))
		}
	}
	if err := finishTrace(cfg, tr, op, plain, traced, res); err != nil {
		return err
	}
	return runProbes(cfg, in, res, nil)
}

// replayBlock is the number of consecutive ops of one kind in the traced
// pass.
const replayBlock = 5
