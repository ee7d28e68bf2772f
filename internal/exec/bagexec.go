package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"emptyheaded/internal/fault"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/trie"
)

// ErrTimeout is returned when RunParams.Ctx runs out its deadline during
// execution.
var ErrTimeout = errors.New("exec: query timeout exceeded")

// ErrCanceled is returned when RunParams.Ctx is cancelled mid-execution —
// a client that hung up.
var ErrCanceled = errors.New("exec: query canceled")

// ErrExecPanic wraps a panic recovered at an executor boundary: the
// query fails, the process keeps serving.
var ErrExecPanic = errors.New("exec: panic in executor")

// panicError converts a recovered loop-nest panic into an error
// carrying the panic value and stack.
func panicError(r any) error {
	return fmt.Errorf("%w: %v\n%s", ErrExecPanic, r, debug.Stack())
}

// Run executes the plan and returns the result relation.
func (p *Plan) Run() (*Result, error) {
	if p.ctx != nil && p.ctx.Done() != nil {
		// The one way a query stops early: the context's end (cancel or
		// deadline) latches a flag the loop nest checks per candidate value.
		flag := new(atomic.Bool)
		p.stop = flag
		unregister := context.AfterFunc(p.ctx, func() { flag.Store(true) })
		defer unregister()
	}
	results := map[int]*trie.Trie{}
	if err := p.runBag(p.Root, results); err != nil {
		return nil, err
	}
	out := results[p.Root.ID]
	final := p.Root
	if p.Assembly != nil {
		// Bind every materialized bag into the assembly join.
		for _, a := range p.Assembly.Atoms {
			a.child.result = results[a.child.resolveID()]
		}
		var sp trace.SpanID = -1
		if p.tr != nil {
			sp = p.tr.Begin("assembly")
		}
		t, err := p.execBag(p.Assembly)
		p.tr.End(sp)
		if err != nil {
			return nil, err
		}
		out = t
		final = p.Assembly
	}
	res := &Result{
		Name:      p.Rule.Head.Name,
		Attrs:     final.OutAttrs,
		Trie:      out,
		Plan:      p,
		Truncated: p.truncated,
		Stats:     p.stats,
	}
	return res, nil
}

// stopErr attributes a latched stop flag to its cause: a cancelled
// context or a spent context deadline.
func (p *Plan) stopErr() error {
	if p.ctx.Err() == context.Canceled {
		return ErrCanceled
	}
	return fmt.Errorf("%w: request deadline exceeded", ErrTimeout)
}

// resolveID follows dedup links.
func (bp *BagPlan) resolveID() int {
	if bp.DedupOf >= 0 {
		return bp.DedupOf
	}
	return bp.ID
}

// runBag executes the bag tree bottom-up (the first Yannakakis pass,
// §3.3.2 "Across Nodes"), sharing results between equivalent bags
// (App. B.2).
func (p *Plan) runBag(bp *BagPlan, results map[int]*trie.Trie) error {
	for _, c := range bp.Children {
		if err := p.runBag(c, results); err != nil {
			return err
		}
	}
	if bp.DedupOf >= 0 {
		if _, ok := results[bp.DedupOf]; !ok {
			return fmt.Errorf("exec: dedup target bag %d not yet computed", bp.DedupOf)
		}
		if p.stats != nil {
			p.stats.Bags = append(p.stats.Bags, &BagStats{
				BagID: bp.ID, Attrs: bp.Attrs, OutAttrs: bp.OutAttrs,
				Reused: true, ReusedFrom: bp.DedupOf,
			})
		}
		return nil
	}
	for _, a := range bp.Atoms {
		if a.child != nil {
			a.child.result = results[a.child.resolveID()]
		}
	}
	var sp trace.SpanID = -1
	if p.tr != nil {
		sp = p.tr.Begin(fmt.Sprintf("bag %d", bp.ID))
	}
	t, err := p.execBag(bp)
	p.tr.End(sp)
	if err != nil {
		return err
	}
	results[bp.ID] = t
	return nil
}

// cursor tracks one atom's descent through its trie during the loop nest.
type cursor struct {
	atom *AtomRef
	t    *trie.Trie
	// nodes[l] is the trie node whose Set binds atom level l; nodes has
	// one entry per atom level, filled during descent.
	nodes []*trie.Node
	// hints[l] is a monotone rank hint into nodes[l].Set: within one loop
	// nest level, probed values ascend, so ranks ascend too.
	hints []int
	// bagLevel[l] maps the atom level to the bag loop-nest level (-1 for
	// constants, handled in preDescend).
	bagLevel []int
}

// bagExec carries per-execution state.
type bagExec struct {
	p  *Plan
	bp *BagPlan
	// perLevel[lvl] lists (cursor, atomLevel) pairs participating at each
	// bag level.
	perLevel [][]curRef
	cursors  []*cursor
	op       semiring.Op
	cfg      set.Config
	// kern executes every pairwise set operation of the loop nest; on the
	// analyze path kerns holds one counting kernel per loop level, each
	// tallying routes into the matching lc[lvl].Kernel (per-worker, no
	// atomics — see kernelAt).
	kern      *set.Kernel
	kerns     []*set.Kernel
	countTail bool // last level computable via kernel Count
	// scalarFactor is the ⊗-product of zero-arity participants (scalar
	// child bags from disconnected components, e.g. the second triangle
	// of the Barbell-selection plan).
	scalarFactor float64
	// lim is non-nil when this bag is the final listing bag of a limited
	// query (see Plan.limitFor); shared across worker clones.
	lim *limitState
	// lc holds the EXPLAIN ANALYZE level counters (see stats.go): nil on
	// the default path, private per worker clone (padded allocation, see
	// newLevelCounters), merged after the pool drains. emits accumulates
	// workers' emit counts at merge time; the hot per-emit counter lives
	// on the worker.
	lc    []LevelStats
	emits int64
}

type curRef struct {
	c         *cursor
	atomLevel int
}

// limitState is the cooperative row budget shared by all workers of a
// limited listing bag (the limit-pushdown path): hit latches once the
// budget is spent so every loop nest unwinds at its next candidate
// value. When every loop-nest level is an output level each emit is a
// distinct tuple, so a plain counter suffices; listings that project
// variables away can emit the same output tuple many times, so the
// budget counts post-dedup distinct tuples through the seen map —
// a limit:k request yields k distinct tuples whenever k exist, instead
// of stopping after k pre-dedup rows.
type limitState struct {
	limit   int64
	emitted atomic.Int64
	hit     atomic.Bool

	// Distinct mode (nil when emits are already distinct). seen holds the
	// packed output tuples counted so far; it never grows past limit
	// entries, since the hit latch fires when it fills.
	mu   sync.Mutex
	seen map[string]struct{}
}

func (ls *limitState) stopped() bool { return ls != nil && ls.hit.Load() }

// noteRow books one emitted output row against the budget.
func (ls *limitState) noteRow(row []uint32) {
	if ls == nil {
		return
	}
	if ls.seen == nil {
		if ls.emitted.Add(1) >= ls.limit {
			ls.hit.Store(true)
		}
		return
	}
	key := make([]byte, 4*len(row))
	for i, v := range row {
		key[4*i] = byte(v)
		key[4*i+1] = byte(v >> 8)
		key[4*i+2] = byte(v >> 16)
		key[4*i+3] = byte(v >> 24)
	}
	ls.mu.Lock()
	if _, dup := ls.seen[string(key)]; !dup {
		ls.seen[string(key)] = struct{}{}
		if int64(len(ls.seen)) >= ls.limit {
			ls.hit.Store(true)
		}
	}
	ls.mu.Unlock()
}

// execBag runs the generic worst-case optimal join (Algorithm 1) for one
// bag and materializes its output trie. A panic anywhere below (the
// inline single-worker path included) is recovered into ErrExecPanic.
func (p *Plan) execBag(bp *BagPlan) (t *trie.Trie, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, panicError(r)
		}
	}()
	op := p.aggOp()
	ex := &bagExec{p: p, bp: bp, op: op, cfg: p.opts.Intersect}
	ex.kern = set.NewKernel(ex.cfg)
	ex.perLevel = make([][]curRef, len(bp.Attrs))
	ex.scalarFactor = op.One()
	var bs *BagStats
	if p.stats != nil {
		bs = &BagStats{BagID: bp.ID, Attrs: bp.Attrs, OutAttrs: bp.OutAttrs,
			Levels: make([]LevelStats, len(bp.Attrs))}
		for i, a := range bp.Attrs {
			bs.Levels[i].Attr = a
		}
		p.stats.Bags = append(p.stats.Bags, bs)
		ex.lc = newLevelCounters(len(bp.Attrs))
		ex.initCountingKernels()
		t0 := time.Now()
		defer func() {
			ex.drainInto(bs)
			bs.WallUS = time.Since(t0).Microseconds()
		}()
	}
	for _, a := range bp.Atoms {
		var t *trie.Trie
		if a.child != nil {
			t = a.child.result
		} else {
			rel, ok := p.db.Relation(a.Rel)
			if !ok {
				return nil, fmt.Errorf("exec: relation %s vanished", a.Rel)
			}
			t = rel.Index(a.Perm, p.opts.layout(), p.opts.layoutName())
		}
		if t.Arity == 0 {
			if !a.SemijoinOnly {
				// Semijoin-only scalar children contribute in the
				// assembly instead (spanning aggregates).
				ex.scalarFactor = op.Mul(ex.scalarFactor, t.Scalar)
			}
			continue
		}
		c := &cursor{atom: a, t: t}
		c.nodes = make([]*trie.Node, t.Arity+1)
		c.hints = make([]int, t.Arity)
		c.nodes[0] = t.Root
		for al := range a.Attrs {
			c.bagLevel = append(c.bagLevel, levelOf(bp, a, al))
		}
		ex.cursors = append(ex.cursors, c)
		for al, bl := range c.bagLevel {
			if bl >= 0 {
				ex.perLevel[bl] = append(ex.perLevel[bl], curRef{c: c, atomLevel: al})
			}
		}
	}
	// Sanity: every level has at least one participant.
	for lvl, refs := range ex.perLevel {
		if len(refs) == 0 {
			return nil, fmt.Errorf("exec: no atom binds attribute %s", bp.Attrs[lvl])
		}
	}
	// Pre-descend selection constants (App. B.1: selections are
	// processed first; constant levels sort before variable levels in
	// every atom's index order).
	for _, c := range ex.cursors {
		if !ex.preDescend(c) {
			// A selection constant is absent: the bag result is empty.
			if bs != nil {
				bs.SelectionMiss = true
			}
			return ex.emptyResult(), nil
		}
	}
	// Count-only tail: the final level is eliminated, aggregates by
	// multiplicity under SUM/COUNT, and no annotated atom contributes
	// there — the triangle-count inner loop (§5.2.1) hits this path.
	ex.countTail = ex.countTailOK()

	if len(bp.Attrs) == 0 {
		// All-constant bag: the result is the scalar factor.
		return trie.NewScalar(ex.scalarFactor, op), nil
	}
	if n := p.limitFor(bp); n > 0 {
		ex.lim = &limitState{limit: int64(n)}
		if len(bp.OutAttrs) < len(bp.Attrs) {
			// Projected listing: count distinct output tuples, so the
			// truncated result holds `limit` tuples post-dedup.
			ex.lim.seen = make(map[string]struct{}, n)
		}
	}
	cols, anns, scalar, err := ex.runParallel()
	if err != nil {
		return nil, err
	}
	if p.stop != nil && p.stop.Load() {
		return nil, p.stopErr()
	}
	if ex.lim.stopped() {
		p.truncated = true
	}
	return ex.materialize(cols, anns, scalar), nil
}

// limitFor reports the row budget to push into bp, or 0. Pushdown applies
// only to the bag that produces the final listing (the assembly when
// present, else the root) and only without aggregation; inner bags always
// materialize fully, since their results feed joins. The budget counts
// post-dedup distinct output tuples: when every loop-nest level is an
// output level each emit is distinct and a plain counter suffices; with
// projected-away variables the limitState tracks distinct tuples
// explicitly, so a limit:N request yields N distinct tuples whenever the
// full result has that many.
func (p *Plan) limitFor(bp *BagPlan) int {
	if p.limit <= 0 || p.Agg.Present {
		return 0
	}
	final := p.Root
	if p.Assembly != nil {
		final = p.Assembly
	}
	if bp != final || len(bp.OutAttrs) == 0 {
		return 0
	}
	return p.limit
}

func (p *Plan) aggOp() semiring.Op {
	if p.Agg.Present {
		return p.Agg.Op
	}
	return semiring.Sum
}

// preDescend walks an atom's leading constant levels.
func (ex *bagExec) preDescend(c *cursor) bool {
	if c.t.Arity == 0 {
		return true
	}
	for al, k := range c.atom.consts {
		n := c.nodes[al]
		if n == nil || !n.Set.Contains(k.code) {
			return false
		}
		c.nodes[al+1] = n.Child(k.code)
	}
	return true
}

func (ex *bagExec) countTailOK() bool {
	bp := ex.bp
	last := len(bp.Attrs) - 1
	if last < 0 || bp.Out[last] {
		return false
	}
	if !ex.p.Agg.Present {
		return false
	}
	if ex.op != semiring.Sum && ex.op != semiring.Count {
		return false
	}
	// Multiplicity semantics at the tail: either COUNT(*)/no agg var, or
	// the aggregate variable *is* the last attribute.
	if ex.p.Agg.Var != "*" && ex.p.Agg.Var != "" && bp.AggVarLevel != last {
		return false
	}
	if bp.ExistsFrom <= last {
		return false
	}
	for _, a := range ex.bp.Atoms {
		if a.Annotated && a.LastLevel >= 0 && levelOf(bp, a, a.LastLevel) == last {
			return false
		}
	}
	return true
}

func (ex *bagExec) emptyResult() *trie.Trie {
	b := trie.NewColumnarBuilder(len(ex.bp.OutAttrs), ex.op, ex.p.opts.layout())
	return b.Build()
}

// initCountingKernels builds one counting kernel per loop level, each
// writing into the matching lc[lvl].Kernel stats block. ex.lc must be
// set; each worker clone calls this on its private lc, so the counters
// stay contention-free and merge through LevelStats.add.
func (ex *bagExec) initCountingKernels() {
	ex.kerns = make([]*set.Kernel, len(ex.lc))
	for i := range ex.kerns {
		ex.kerns[i] = set.NewCountingKernel(ex.cfg, &ex.lc[i].Kernel)
	}
}

// kernelAt returns the kernel executing level lvl's pairwise set ops: the
// shared plain kernel normally, the level's counting kernel under analyze.
func (ex *bagExec) kernelAt(lvl int) *set.Kernel {
	if ex.kerns != nil {
		return ex.kerns[lvl]
	}
	return ex.kern
}

// worker holds one goroutine's accumulation state. Output accumulates
// column-wise: cols[i] holds output attribute i of every emitted row, so
// an emit is one append per attribute (no per-row allocation) and the
// result hands straight to the columnar trie builder.
type worker struct {
	ex     *bagExec
	outBuf []uint32
	cols   [][]uint32
	anns   []float64
	scalar float64
	// emits counts emit() calls when analyze counters are on. It lives
	// here, not on bagExec: emit already writes this struct's slice
	// headers, so the extra store adds no cross-worker cache traffic.
	emits int64
	// scratch provides two ping-pong intersection buffer pairs per loop
	// level, so the loop nest runs allocation-free on uint and bitset
	// results.
	scratch []scratchLevel
}

// scratchBuf is one intersection result and the buffers it aliases; the
// loop nest hands out pointers to s instead of copying the 120-byte Set.
type scratchBuf struct {
	s set.Set
	u []uint32
	w []uint64
}

type scratchLevel [2]scratchBuf

func (w *worker) initScratch(levels int) {
	w.scratch = make([]scratchLevel, levels)
}

// intersectionAt computes the set of candidate values at a bag level from
// the current cursor nodes (the ∩ of Algorithm 1) in the worker's
// per-level scratch buffers; the result points into them or into a trie
// node, valid until the worker next intersects at lvl.
func (w *worker) intersectionAt(lvl int) *set.Set {
	s := w.intersectPrefix(lvl, w.ex.perLevel[lvl])
	if w.ex.lc != nil {
		w.ex.noteIntersect(lvl, s.Card())
	}
	return s
}

// intersectPrefix intersects the level sets of refs left to right,
// ping-ponging between the level's two scratch buffers.
func (w *worker) intersectPrefix(lvl int, refs []curRef) *set.Set {
	ex := w.ex
	cur := ex.levelSet(refs[0])
	flip := 0
	for _, r := range refs[1:] {
		if cur.IsEmpty() {
			return cur
		}
		sb := &w.scratch[lvl][flip]
		sb.u, sb.w = ex.kernelAt(lvl).IntersectInto(&sb.s, cur, ex.levelSet(r), sb.u, sb.w)
		cur = &sb.s
		flip ^= 1
	}
	return cur
}

// countAtBuf counts the tail-level intersection using scratch buffers.
func (w *worker) countAtBuf(lvl int) int {
	n := w.countAtBufInner(lvl)
	if w.ex.lc != nil {
		w.ex.noteIntersect(lvl, n)
	}
	return n
}

func (w *worker) countAtBufInner(lvl int) int {
	ex := w.ex
	refs := ex.perLevel[lvl]
	last := len(refs) - 1
	if last == 0 {
		return ex.levelSet(refs[0]).Card()
	}
	return ex.kernelAt(lvl).CountOf(w.intersectPrefix(lvl, refs[:last]), ex.levelSet(refs[last]))
}

// stealBlockMax bounds the work-stealing block size: small enough that a
// handful of power-law high-degree vertices spread across workers instead
// of serializing the tail, large enough to amortize the atomic claim and
// the per-block set construction.
const stealBlockMax = 64

// runParallel distributes the first variable level across workers with
// work stealing: the sorted first-level values are split into fixed-size
// blocks claimed off an atomic cursor, so workers that drew cheap (low
// degree) values keep pulling blocks while a worker stuck on a skewed
// high-degree vertex finishes its one block. Output accumulates in
// per-worker columns, concatenated once at the end.
func (ex *bagExec) runParallel() ([][]uint32, []float64, float64, error) {
	nw := ex.p.opts.Parallelism
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	// The coordinator's own worker computes the first level; it also runs
	// the whole nest when one worker suffices.
	w0 := ex.newWorker()
	w0.initScratch(len(ex.bp.Attrs))
	first := w0.intersectionAt(0)
	if first.IsEmpty() {
		return make([][]uint32, len(ex.bp.OutAttrs)), nil, ex.op.Zero(), nil
	}
	if nw > first.Card() {
		nw = first.Card()
	}
	if nw <= 1 || len(ex.bp.Attrs) == 1 {
		// Chaos hook (Latency/PanicKind); the inline path's panics are
		// recovered by execBag.
		_ = fault.Hit("exec.worker")
		w0.levelValues(0, first, ex.scalarFactor)
		if ex.lc != nil {
			ex.mergeCounters(w0)
		}
		return w0.cols, w0.anns, w0.scalar, nil
	}
	vals := first.Slice()
	block := len(vals) / (nw * 8)
	if block < 1 {
		block = 1
	}
	if block > stealBlockMax {
		block = stealBlockMax
	}
	workers := make([]*worker, 0, nw)
	var next atomic.Int64
	var wg sync.WaitGroup
	// Panic isolation: a worker that panics must not kill the process —
	// the first panic is captured, the stop flag unwinds its peers, and
	// the whole bag fails with ErrExecPanic.
	var panicOnce sync.Once
	var panicErr error
	for i := 0; i < nw; i++ {
		// Each worker needs private cursor state below level 0.
		w := ex.newWorker().withPrivateCursors()
		w.initScratch(len(ex.bp.Attrs))
		workers = append(workers, w)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicErr = panicError(r) })
					if ex.p.stop != nil {
						ex.p.stop.Store(true)
					}
				}
			}()
			for {
				if ex.p.stop != nil && ex.p.stop.Load() {
					return
				}
				if ex.lim.stopped() {
					return
				}
				// Chaos hook: PanicKind exercises this recover, Latency
				// stretches a worker mid-bag.
				_ = fault.Hit("exec.worker")
				lo := int(next.Add(int64(block))) - block
				if lo >= len(vals) {
					return
				}
				hi := lo + block
				if hi > len(vals) {
					hi = len(vals)
				}
				blk := set.FromSorted(vals[lo:hi])
				w.levelValues(0, &blk, w.ex.scalarFactor)
			}
		}(w)
	}
	wg.Wait()
	if panicErr != nil {
		return nil, nil, 0, panicErr
	}
	if ex.lc != nil {
		for _, w := range workers {
			ex.mergeCounters(w)
		}
	}
	// Concatenate the per-worker columns: one flat copy per attribute, no
	// pointer chasing, sized exactly once.
	total := 0
	for _, w := range workers {
		total += len(w.anns)
	}
	cols := make([][]uint32, len(ex.bp.OutAttrs))
	for c := range cols {
		col := make([]uint32, 0, total)
		for _, w := range workers {
			col = append(col, w.cols[c]...)
		}
		cols[c] = col
	}
	anns := make([]float64, 0, total)
	scalar := ex.op.Zero()
	for _, w := range workers {
		anns = append(anns, w.anns...)
		scalar = ex.op.Add(scalar, w.scalar)
	}
	return cols, anns, scalar, nil
}

// withPrivateCursors clones the execution state so a worker can descend
// independently. Cursor node stacks are per-worker; tries are shared
// (immutable).
func (w *worker) withPrivateCursors() *worker {
	old := w.ex
	ex := &bagExec{
		p: old.p, bp: old.bp, op: old.op, cfg: old.cfg, kern: old.kern,
		countTail: old.countTail, scalarFactor: old.scalarFactor,
		lim: old.lim,
	}
	if old.lc != nil {
		ex.lc = newLevelCounters(len(old.lc))
		ex.initCountingKernels()
	}
	ex.perLevel = make([][]curRef, len(old.perLevel))
	cmap := map[*cursor]*cursor{}
	for _, c := range old.cursors {
		nc := &cursor{atom: c.atom, t: c.t, bagLevel: c.bagLevel}
		nc.nodes = make([]*trie.Node, len(c.nodes))
		copy(nc.nodes, c.nodes)
		nc.hints = make([]int, len(c.hints))
		cmap[c] = nc
		ex.cursors = append(ex.cursors, nc)
	}
	for lvl, refs := range old.perLevel {
		for _, r := range refs {
			ex.perLevel[lvl] = append(ex.perLevel[lvl], curRef{c: cmap[r.c], atomLevel: r.atomLevel})
		}
	}
	return &worker{ex: ex, outBuf: w.outBuf, cols: w.cols, anns: w.anns, scalar: w.scalar}
}

// emptySet stands in for the level set of a nil trie node.
var emptySet set.Set

// levelSet returns the set a participant contributes at its level, by
// pointer into the trie node: a probe never copies a Set.
func (ex *bagExec) levelSet(r curRef) *set.Set {
	if n := r.c.nodes[r.atomLevel]; n != nil {
		return &n.Set
	}
	return &emptySet
}

// levelValues iterates the candidate values of a level and recurses.
// ann carries the ⊗-product of annotations collected so far.
func (w *worker) levelValues(lvl int, candidates *set.Set, ann float64) {
	ex := w.ex
	bp := ex.bp
	last := lvl == len(bp.Attrs)-1

	// Count-only tail: |∩ sets| with SUM/COUNT multiplicity.
	if last && ex.countTail {
		n := w.countAtBuf(lvl)
		if n > 0 {
			w.emit(ex.op.Mul(ann, float64(n)))
		}
		return
	}
	// Existence tail: all remaining levels only need one witness.
	if lvl >= bp.ExistsFrom {
		if w.exists(lvl) {
			w.emit(ann)
		}
		return
	}

	outPos := -1
	if bp.Out[lvl] {
		outPos = 0
		for i := 0; i < lvl; i++ {
			if bp.Out[i] {
				outPos++
			}
		}
	}
	// Fresh iteration over this level: rank hints restart at zero (values
	// ascend only within one pass).
	for _, r := range ex.perLevel[lvl] {
		r.c.hints[r.atomLevel] = 0
	}
	// A trailing eliminated level folds in place: one ⊕-accumulator and a
	// single emit, instead of one row per value with builder-side
	// combining (the early-aggregation inner loop of §3.1.1).
	foldHere := last && !bp.Out[lvl]
	acc := ex.op.Zero()
	folded := false
	var lvlStats *LevelStats
	if ex.lc != nil {
		lvlStats = &ex.lc[lvl]
	}
	ncand := candidates.Card()
	candidates.ForEachUntil(func(i int, v uint32) bool {
		if lvlStats != nil {
			lvlStats.Probes++
		}
		if ex.lim.stopped() {
			// Limit pushdown: the listing budget is spent; unwind.
			return false
		}
		if ex.p.stop != nil && ex.p.stop.Load() {
			// Cooperative cancellation: one flag check per value.
			return false
		}
		a := ann
		ok := true
		// Descend every atom participating at this level; collect
		// annotations of atoms fully bound here. candidates ⊆ every
		// participant's set, so a participant of the same cardinality *is*
		// the candidate set and v's rank in it is the iteration index;
		// otherwise look v up, tracking monotone rank hints.
		for _, r := range ex.perLevel[lvl] {
			c := r.c
			al := r.atomLevel
			n := c.nodes[al]
			rank := i
			if n.Set.Card() != ncand {
				var found bool
				rank, found = n.Set.RankNext(v, c.hints[al])
				c.hints[al] = rank
				if !found {
					ok = false
					break
				}
			}
			if al == c.atom.LastLevel {
				if c.atom.Annotated && !c.atom.SemijoinOnly && n.Ann != nil {
					a = ex.op.Mul(a, n.Ann[rank])
				}
			} else {
				child := n.Children[rank]
				c.nodes[al+1] = child
				if al+1 < len(c.hints) {
					c.hints[al+1] = 0
				}
			}
		}
		if !ok {
			if lvlStats != nil {
				lvlStats.Skipped++
			}
			return true
		}
		if outPos >= 0 {
			w.outBuf[outPos] = v
		}
		if last {
			if foldHere {
				acc = ex.op.Add(acc, a)
				folded = true
			} else {
				w.emit(a)
			}
			return true
		}
		// Count-only tail shortcut: don't materialize the last-level
		// intersection just to recount it.
		if lvl+1 == len(bp.Attrs)-1 && ex.countTail {
			if n := w.countAtBuf(lvl + 1); n > 0 {
				w.emit(ex.op.Mul(a, float64(n)))
			}
			return true
		}
		next := w.intersectionAt(lvl + 1)
		if !next.IsEmpty() {
			w.levelValues(lvl+1, next, a)
		}
		return true
	})
	// An unwind mid-fold leaves acc partially ⊕-combined; emitting it
	// would present an undercounted annotation as a real one. Drop it —
	// the limit path returns a truncated result anyway, and the timeout
	// path discards the whole result.
	if folded && !ex.lim.stopped() {
		w.emit(acc)
	}
}

// exists reports whether any full binding exists from lvl on.
func (w *worker) exists(lvl int) bool {
	ex := w.ex
	candidates := w.intersectionAt(lvl)
	if candidates.IsEmpty() {
		return false
	}
	if lvl == len(ex.bp.Attrs)-1 {
		return true
	}
	found := false
	candidates.ForEachUntil(func(_ int, v uint32) bool {
		ok := true
		for _, r := range ex.perLevel[lvl] {
			if r.atomLevel+1 < len(r.c.atom.Attrs) {
				child := r.c.nodes[r.atomLevel].Child(v)
				if child == nil {
					ok = false
					break
				}
				r.c.nodes[r.atomLevel+1] = child
			}
		}
		if ok && w.exists(lvl+1) {
			found = true
			return false
		}
		return true
	})
	return found
}

// emit records one output row (or folds into the scalar when the bag has
// no output attributes): one amortized append per output attribute.
func (w *worker) emit(ann float64) {
	if w.ex.lc != nil {
		w.emits++
	}
	if len(w.ex.bp.OutAttrs) == 0 {
		w.scalar = w.ex.op.Add(w.scalar, ann)
		return
	}
	for i, v := range w.outBuf {
		w.cols[i] = append(w.cols[i], v)
	}
	w.anns = append(w.anns, ann)
	w.ex.lim.noteRow(w.outBuf)
}

// newWorker allocates one goroutine's accumulation state.
func (ex *bagExec) newWorker() *worker {
	w := &worker{ex: ex, outBuf: make([]uint32, len(ex.bp.OutAttrs)), scalar: ex.op.Zero()}
	w.cols = make([][]uint32, len(ex.bp.OutAttrs))
	return w
}

// materialize hands the emitted columns to the columnar trie builder
// zero-copy; duplicate rows combine with ⊕ (the early aggregation GHDs
// enable, §3.1.1).
func (ex *bagExec) materialize(cols [][]uint32, anns []float64, scalar float64) *trie.Trie {
	if len(ex.bp.OutAttrs) == 0 {
		return trie.NewScalar(scalar, ex.op)
	}
	b := trie.NewColumnarBuilder(len(ex.bp.OutAttrs), ex.op, ex.p.opts.layout())
	if len(anns) == 0 {
		anns = nil // no emits: an empty un-annotated trie, as before
	}
	b.SetColumns(cols, anns)
	return b.Build()
}
