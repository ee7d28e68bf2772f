package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"emptyheaded/internal/baseline"
	"emptyheaded/internal/core"
	"emptyheaded/internal/datalog"
	"emptyheaded/internal/delta"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
	"emptyheaded/internal/wal"
)

// Layer probes: each times calls into one layer's public functions, on
// scratch engines over the graph of the workload being traced. They give
// every per-layer metric that no span of the workload's own ops can give.

const probeReps = 7

// queryTimes are the median times of one query's layers: parse, plan, run
// on a fork, Engine.Run as a whole, and what Engine.Run takes beyond the
// three (taken round by round, so drift cancels).
type queryTimes struct{ parse, plan, run, whole, overhead time.Duration }

// probeQuery runs q once through Engine.Run and checks the answer, then
// times its layers in rounds: parse, plan, run, whole, and again. Short
// queries get more rounds.
func probeQuery(e *core.Engine, q engineQuery, res *runResult) (queryTimes, error) {
	t0 := time.Now()
	first, err := e.Run(q.Text)
	if err != nil {
		return queryTimes{}, fmt.Errorf("%s: %w", q.Name, err)
	}
	rounds := min(max(int(100*time.Millisecond/time.Since(t0)), probeReps), 5*probeReps)
	res.Attempted++
	if err := q.Check(first); err != nil {
		res.Failed++
		res.note("probe " + q.Name + ": " + err.Error())
	}
	var parse, plan, run, whole, overhead []float64
	for range rounds {
		t0 := time.Now()
		prog, err := datalog.Parse(q.Text)
		if err != nil {
			return queryTimes{}, err
		}
		t1 := time.Now()
		pr, err := exec.Prepare(e.DB, prog, e.Opts)
		if err != nil {
			return queryTimes{}, err
		}
		t2 := time.Now()
		if _, err := pr.RunWith(e.DB.Fork(), exec.RunParams{}); err != nil {
			return queryTimes{}, err
		}
		t3 := time.Now()
		if _, err := e.Run(q.Text); err != nil {
			return queryTimes{}, err
		}
		t4 := time.Now()
		parse = append(parse, float64(t1.Sub(t0)))
		plan = append(plan, float64(t2.Sub(t1)))
		run = append(run, float64(t3.Sub(t2)))
		whole = append(whole, float64(t4.Sub(t3)))
		overhead = append(overhead, float64(t4.Sub(t3)-t3.Sub(t0)))
	}
	d := func(vals []float64) time.Duration { return time.Duration(median(vals)) }
	return queryTimes{d(parse), d(plan), d(run), d(whole), d(overhead)}, nil
}

// runProbes measures the per-layer metrics. win is the serve window of a
// serve workload, whose /stats deltas are already reported; nil for an
// embedded workload, which reports the probe server's instead.
func runProbes(cfg runConfig, in *inputs, res *runResult, win *serveWindow) error {
	g := in.g
	tmp := filepath.Join(cfg.Scratch, "probes")
	env := newEmbeddedEnv(in, nil, true)
	e, err := env.load()
	if err != nil {
		return err
	}
	pool := buildPool(g)
	if err := probeQueries(in, env, e, pool, res); err != nil {
		return err
	}
	probeTrie(g, res)
	probeSets(cfg.Seed, res)
	if err := probeUpdates(cfg, in, env, tmp, res); err != nil {
		return err
	}
	if err := probeWAL(tmp, res); err != nil {
		return err
	}
	if err := probeStorage(e, tmp, res); err != nil {
		return err
	}
	return probeServer(in, env, pool, tmp, res, win)
}

// probeQueries times the parser on the pool's texts and the eight probe
// queries layer by layer (parse, plan, run), reads the engine's own
// counters, and sets the triangle count and PageRank against the
// hand-written baselines they are meant to match.
func probeQueries(in *inputs, env *embeddedEnv, e *core.Engine, pool []poolQuery, res *runResult) error {
	g := in.g
	var err error
	// datalog: parse and fingerprint every pool text.
	progs := make([]*datalog.Program, len(pool))
	t0 := time.Now()
	for i := range pool {
		if progs[i], err = datalog.Parse(pool[i].Text); err != nil {
			return err
		}
	}
	res.set("datalog.parse_us", us(time.Since(t0))/float64(len(pool)), "us")
	t0 = time.Now()
	for _, p := range progs {
		_ = p.Fingerprint()
	}
	res.set("datalog.fingerprint_us", us(time.Since(t0))/float64(len(pool)), "us")

	// ghd, exec, core: the eight queries, layer by layer.
	pattern := patternQueries(in.ans)
	queries := slices.Concat(pattern, analyticsQueries(in.ans), anchoredQueries(g, in.ans, pool[globalQueries].Anchor))
	times := map[string]queryTimes{}
	var planSum, wholeSum time.Duration
	for i, q := range queries {
		qt, err := probeQuery(e, q, res)
		if err != nil {
			return err
		}
		times[q.Name] = qt
		res.set("exec.run_ms."+q.Name, ms(qt.run), "ms")
		if i < len(pattern) {
			res.set("ghd.plan_us."+q.Name, us(qt.plan), "us")
			planSum += qt.plan
			wholeSum += qt.whole
		}
	}
	res.set("ghd.plan_share", float64(planSum)/float64(wholeSum), "ratio")
	tri := times["triangle"]
	res.set("core.run_overhead_us", us(tri.overhead), "us")

	if err := probeCounters(e, queries, res); err != nil {
		return err
	}

	// Allocation per round of the eight queries through Engine.Run.
	const allocRounds = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range allocRounds {
		for _, q := range queries {
			if _, err := e.Run(q.Text); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	res.set("exec.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/allocRounds/1024, "KB")
	res.set("exec.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/allocRounds, "count")

	// Parallel speed-up of the triangle query, and the hand-written
	// baselines it and PageRank are meant to match.
	triProg, err := datalog.Parse(textTriangle)
	if err != nil {
		return err
	}
	timeAt := func(par int) (time.Duration, error) {
		opts := e.Opts
		opts.Parallelism = par
		pr, err := exec.Prepare(e.DB, triProg, opts)
		if err != nil {
			return 0, err
		}
		return medianOf(probeReps, func() { _, err = pr.RunWith(e.DB.Fork(), exec.RunParams{}) }), err
	}
	serial, err := timeAt(1)
	if err != nil {
		return err
	}
	parallel, err := timeAt(nproc)
	if err != nil {
		return err
	}
	res.set("exec.parallel_speedup", float64(serial)/float64(parallel), "ratio")

	pruned := graph.FromEdgeColumns(g.N, env.prunedSrc, env.prunedDst, false)
	var lowTri int64
	lowTriTime := medianOf(probeReps, func() { lowTri = baseline.LowLevelTriangleCount(pruned, nproc) })
	res.Attempted++
	if lowTri != in.ans.Triangles {
		res.Failed++
		res.note(fmt.Sprintf("baseline triangle count %d, want %d", lowTri, in.ans.Triangles))
	}
	res.set("exec.vs_lowlevel_ratio", float64(tri.run)/float64(lowTriTime), "ratio")
	sym := graph.FromEdgeColumns(g.N, g.Src, g.Dst, true)
	lowPR := medianOf(probeReps, func() { baseline.LowLevelPageRank(sym, pageRankIters, nproc) })
	res.set("exec.pagerank_vs_lowlevel_ratio", float64(times["pagerank"].run)/float64(lowPR), "ratio")

	return nil
}

// probeCounters runs the pattern and anchored queries once with the
// engine's own counters on and sums them. The counts repeat exactly for
// a seed. Multi-rule and recursive programs collect nothing.
func probeCounters(e *core.Engine, queries []engineQuery, res *runResult) error {
	var inter, probes, skipped, inCard, outCard, emitted int64
	var routes set.KernelStats
	for _, q := range queries {
		prog, err := datalog.Parse(q.Text)
		if err != nil {
			return err
		}
		pr, err := exec.Prepare(e.DB, prog, e.Opts)
		if err != nil {
			return err
		}
		if !pr.HasPlan() {
			continue
		}
		r, err := pr.RunWith(e.DB.Fork(), exec.RunParams{Collect: true})
		if err != nil {
			return err
		}
		emitted += r.Stats.TotalEmitted()
		for _, b := range r.Stats.Bags {
			for i := range b.Levels {
				l := &b.Levels[i]
				inter += l.Intersections
				probes += l.Probes
				skipped += l.Skipped
				inCard += l.InputCard
				outCard += l.OutputCard
				routes.Add(&l.Kernel)
			}
		}
	}
	res.set("exec.intersections", float64(inter), "count")
	res.set("exec.probes", float64(probes), "count")
	res.set("exec.skipped_frac", ratio(float64(skipped), float64(probes)), "ratio")
	res.set("exec.emitted", float64(emitted), "count")
	res.set("exec.selectivity", ratio(float64(outCard), float64(inCard)), "ratio")
	total := float64(routes.Total())
	res.set("exec.route_frac.word_parallel", ratio(float64(routes.WordParallel()), total), "ratio")
	res.set("exec.route_frac.galloping", ratio(float64(routes.Counts[set.RouteUintGallop]), total), "ratio")
	res.set("exec.route_frac.merge", ratio(float64(routes.Counts[set.RouteUintMerge]+routes.Counts[set.RouteUintShuffle]), total), "ratio")
	return nil
}

// symmetricColumns returns both directions of every edge, unsorted.
func symmetricColumns(g *graphData) [][]uint32 {
	return [][]uint32{slices.Concat(g.Src, g.Dst), slices.Concat(g.Dst, g.Src)}
}

// probeTrie times the index build on unsorted edge columns and reads the
// layouts the optimizer chose for the neighbour sets.
func probeTrie(g *graphData, res *runResult) {
	var t *trie.Trie
	var builds []float64
	for range 3 {
		cols := symmetricColumns(g)
		t0 := time.Now()
		t = trie.FromColumns(cols, nil, semiring.None, nil)
		builds = append(builds, ms(time.Since(t0)))
	}
	res.set("trie.build_ms", median(builds), "ms")
	rows := float64(t.Cardinality())
	res.set("trie.mem_bytes_per_edge", float64(t.MemBytes())/rows, "B")
	members := t.LayoutProfile()[1].Members
	res.set("trie.bitset_frac", float64(members[set.Bitset.String()])/rows, "ratio")
	res.set("trie.composite_frac", float64(members[set.Composite.String()])/rows, "ratio")
}

// randomSet draws n distinct values below span, sorted.
func randomSet(r *rng, n, span int) []uint32 {
	seen := make(map[uint32]bool, n)
	vals := make([]uint32, 0, n)
	for len(vals) < n {
		v := uint32(r.intn(span))
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	return vals
}

// clusteredSet is the shape the composite layout is for: every other
// 256-value block half full, the blocks between nearly empty.
func clusteredSet(r *rng, span int) set.Set {
	var vals []uint32
	for lo := 0; lo < span; lo += set.BlockBits {
		n := 4
		if lo/set.BlockBits%2 == 0 {
			n = set.BlockBits / 2
		}
		for _, v := range randomSet(r, n, set.BlockBits) {
			vals = append(vals, uint32(lo)+v)
		}
	}
	return set.BuildLayout(vals, set.Composite)
}

// probeSets times set.DefaultKernel.Count on seeded pairs of each layout
// combination.
func probeSets(seed uint64, res *runResult) {
	r := newRNG(seed + 4)
	count := func(a, b set.Set, per float64) float64 {
		const inner = 200
		d := medianOf(probeReps, func() {
			for range inner {
				sinkInt += set.DefaultKernel.Count(a, b)
			}
		})
		return float64(d.Nanoseconds()) / inner / per
	}
	sparse := func(n int) set.Set { return set.BuildLayout(randomSet(r, n, 1<<20), set.Uint) }
	a, b := sparse(4096), sparse(4096)
	res.set("set.uint_uint_ns_per_elem", count(a, b, 8192), "ns")
	small := sparse(64)
	res.set("set.uint_uint_skew_ns_per_elem", count(small, b, 64+4096), "ns")
	const span = 1 << 16
	bits1 := set.BuildLayout(randomSet(r, span/4, span), set.Bitset)
	bits2 := set.BuildLayout(randomSet(r, span/4, span), set.Bitset)
	probe := set.BuildLayout(randomSet(r, 1024, span), set.Uint)
	res.set("set.uint_bitset_ns_per_elem", count(probe, bits1, 1024), "ns")
	res.set("set.bitset_bitset_ns_per_word", count(bits1, bits2, span/64), "ns")
	comp1, comp2 := clusteredSet(r, span), clusteredSet(r, span)
	res.set("set.composite_composite_ns_per_elem", count(comp1, comp2, float64(comp1.Card()+comp2.Card())), "ns")
}

// sinkInt keeps the compiler from dropping the kernels' results.
var sinkInt int

// applyBatches applies n model batches straight to the engine and
// returns the time of each.
func applyBatches(e *core.Engine, m *mixedModel, n int) ([]float64, error) {
	var lat []float64
	for range n {
		cols, del, apply := m.next()
		b := core.UpdateBatch{Rel: "Edge", InsCols: cols}
		if del {
			b = core.UpdateBatch{Rel: "Edge", DelCols: cols}
		}
		t0 := time.Now()
		r, err := e.Update(b)
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		apply()
		if r.Cardinality != m.rows() {
			return nil, fmt.Errorf("update probe: cardinality %d, model has %d rows", r.Cardinality, m.rows())
		}
	}
	return lat, nil
}

// probeUpdates times Engine.Update, Engine.Compact and WAL replay, and
// the overlay's costs: building a merged view and reading through one.
func probeUpdates(cfg runConfig, in *inputs, env *embeddedEnv, tmp string, res *runResult) error {
	g := in.g
	e, err := env.load()
	if err != nil {
		return err
	}
	e.SetAutoCompact(0, 0)
	m := newMixedModel(g, cfg.Seed)
	baseRows := 2 * len(g.Src)
	perPercent := max(baseRows/100/updateRows, 1)

	// Overlay at 1 % of the base: update latency, merged-view build, and
	// the triangle count read through the overlay.
	lat, err := applyBatches(e, m, perPercent)
	if err != nil {
		return err
	}
	res.set("core.update_ms", median(lat), "ms")
	rel, ok := e.DB.Relation("Edge")
	if !ok {
		return fmt.Errorf("update probe: no Edge relation")
	}
	cols, _, _ := m.next()
	ins := trie.FromColumns(cols, nil, semiring.None, nil)
	base := rel.Canonical()
	res.set("delta.merged_view_us", us(medianOf(probeReps, func() { delta.MergedView(base, ins, nil, nil) })), "us")
	triangle := func() (time.Duration, error) {
		var err error
		d := medianOf(probeReps, func() { _, err = e.Run(textGlobalTriangle) })
		return d, err
	}
	overlayRead, err := triangle()
	if err != nil {
		return err
	}

	// Overlay at 2 %: compaction, then the same read on the compacted base.
	if _, err := applyBatches(e, m, perPercent); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := e.Compact("Edge"); err != nil {
		return err
	}
	res.set("core.compact_ms", ms(time.Since(t0)), "ms")
	compactedRead, err := triangle()
	if err != nil {
		return err
	}
	res.set("delta.overlay_read_penalty", float64(overlayRead)/float64(compactedRead), "ratio")

	// Replay: journal batches without fsync, then open the log on a
	// fresh engine over the same graph.
	walDir := filepath.Join(tmp, "replay")
	writer, err := env.load()
	if err != nil {
		return err
	}
	writer.SetAutoCompact(0, 0)
	if _, err := writer.OpenWAL(core.WALConfig{Dir: walDir, Sync: wal.SyncOff}); err != nil {
		return err
	}
	replayBatches := 1000
	if cfg.Tiny {
		replayBatches = 100
	}
	if _, err := applyBatches(writer, newMixedModel(g, cfg.Seed), replayBatches); err != nil {
		return err
	}
	if err := writer.CloseWAL(); err != nil {
		return err
	}
	reader, err := env.load()
	if err != nil {
		return err
	}
	t0 = time.Now()
	st, err := reader.OpenWAL(core.WALConfig{Dir: walDir, Sync: wal.SyncOff})
	if err != nil {
		return err
	}
	res.set("core.wal_replay_ms", ms(time.Since(t0)), "ms")
	res.Attempted++
	if st.Records != replayBatches {
		res.Failed++
		res.note(fmt.Sprintf("wal replay: %d records, want %d", st.Records, replayBatches))
	}
	return reader.CloseWAL()
}

// probeWAL times Log.Append of one 64-row record under fsync off and
// always, and reads the log's own fsync and byte counters.
func probeWAL(tmp string, res *runResult) error {
	rec := func(i int) *wal.Record {
		cols := [][]uint32{make([]uint32, updateRows), make([]uint32, updateRows)}
		for j := range updateRows {
			cols[0][j], cols[1][j] = uint32(i), uint32(j)
		}
		return &wal.Record{Rel: "Edge", Arity: 2, InsCols: cols}
	}
	appendAll := func(policy wal.SyncPolicy, n int) (*wal.Log, float64, error) {
		l, _, err := wal.Open(wal.Options{Dir: filepath.Join(tmp, "wal-"+policy.String()), Sync: policy}, nil)
		if err != nil {
			return nil, 0, err
		}
		var lat []float64
		for i := range n {
			r := rec(i)
			t0 := time.Now()
			_, err := l.Append(r)
			lat = append(lat, us(time.Since(t0)))
			if err != nil {
				l.Close()
				return nil, 0, err
			}
		}
		return l, median(lat), nil
	}
	off, offUS, err := appendAll(wal.SyncOff, 500)
	if err != nil {
		return err
	}
	res.set("wal.append_us.off", offUS, "us")
	st := off.StatsSnapshot()
	res.set("wal.bytes_per_user_byte", float64(st.Bytes)/float64(st.Records*4*2*updateRows), "ratio")
	if err := off.Close(); err != nil {
		return err
	}
	always, alwaysUS, err := appendAll(wal.SyncAlways, 200)
	if err != nil {
		return err
	}
	res.set("wal.append_us.always", alwaysUS, "us")
	n, nanos := always.FsyncTotals()
	res.set("wal.fsync_us", ratio(float64(nanos)/1e3, float64(n)), "us")
	return always.Close()
}

// probeStorage times snapshot and restore of the probe engine.
func probeStorage(e *core.Engine, tmp string, res *runResult) error {
	var snaps, restores []float64
	for i := range 3 {
		dir := filepath.Join(tmp, fmt.Sprintf("snap-%d", i))
		t0 := time.Now()
		cat, err := e.Snapshot(dir)
		if err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t0)))
		res.set("storage.bytes_per_edge", float64(cat.BytesTotal())/float64(cat.CardinalityTotal()), "B")
		t0 = time.Now()
		if _, err := core.New().Restore(dir); err != nil {
			return err
		}
		restores = append(restores, ms(time.Since(t0)))
	}
	res.set("storage.snapshot_ms", median(snaps), "ms")
	res.set("storage.restore_ms", median(restores), "ms")
	return nil
}

// probeServer measures, from the client side of a server in this
// process, the cost around the engine on four paths: a result-cache hit,
// a miss, a 1000-row listing and an update (round trip minus the
// server's own elapsed_us: HTTP, admission, JSON). Workloads without a
// server of their own also take the /stats deltas from here, and
// workloads without a writer the update latencies.
func probeServer(in *inputs, env *embeddedEnv, pool []poolQuery, tmp string, res *runResult, win *serveWindow) error {
	ls, err := newLocalServer(env, filepath.Join(tmp, "server-wal"))
	if err != nil {
		return err
	}
	defer ls.close()
	h := newHTTPClient(ls.ts.URL, 1)
	defer h.close()
	var before, after serverStats
	if err := h.get("/stats", &before); err != nil {
		return err
	}

	// overhead returns the median of round trip minus elapsed_us over n
	// requests of q, and the median round trip of the cached replies.
	resultHits, planHits, replies := 0, 0, 0
	overhead := func(q poolQuery, n int) (over, hit float64) {
		var overs, hits []float64
		for range n {
			resp, rtt, err := h.query(in, &q)
			res.Attempted++
			if err != nil {
				res.Failed++
				res.note("server probe: " + err.Error())
				continue
			}
			replies++
			if resp.PlanCached {
				planHits++
			}
			if resp.ResultCached {
				resultHits++
				hits = append(hits, us(rtt))
			} else {
				overs = append(overs, us(rtt)-float64(resp.ElapsedUS))
			}
		}
		return median(overs), median(hits)
	}
	anchor := pool[3].Anchor
	_, hit := overhead(newPoolQuery(kindTwoHop, anchor, false), 300)
	res.set("server.hit_rtt_us", hit, "us")
	miss, _ := overhead(newPoolQuery(kindTwoHop, anchor, true), 300)
	res.set("server.miss_overhead_us", miss, "us")
	listing, _ := overhead(newPoolQuery(kindDegrees, 0, true), 50)
	res.set("server.listing_overhead_us", listing, "us")

	m := newMixedModel(in.g, 1)
	var w windowStats
	var overs []float64
	t0 := time.Now()
	for range 100 {
		ack, rtt, err := m.update(h)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.note("server probe: " + err.Error())
			continue
		}
		w.add(rtt, t0)
		overs = append(overs, us(rtt)-float64(ack.ElapsedUS))
	}
	w.Elapsed = time.Since(t0)
	res.set("server.update_overhead_us", median(overs), "us")
	if !in.def.Mixed {
		reportUpdates(res, &w)
	}
	if win == nil {
		if err := h.get("/stats", &after); err != nil {
			return err
		}
		reportServerCounts(res, resultHits, planHits, replies, &before, &after)
	}
	return nil
}
