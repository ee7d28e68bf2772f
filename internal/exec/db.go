// Package exec is EmptyHeaded's execution engine: it compiles parsed
// datalog rules against GHD query plans (§3) and runs the generic
// worst-case optimal join inside each bag with Yannakakis' algorithm
// across bags (§3.3), over the skew-optimized trie storage (§4).
//
// Each bag's outer loop is scheduled with work stealing (small blocks of
// first-level values claimed off an atomic cursor, so skewed high-degree
// vertices don't serialize the tail), workers emit output column-wise,
// and results materialize through the columnar trie builder — the loop
// nest and the materialization path are allocation-free per tuple.
package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"emptyheaded/internal/delta"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// DB is a named collection of relations. All methods are safe for
// concurrent use; a fork (see Fork) is a session-local snapshot so
// concurrent programs can register intermediate head relations without
// clobbering each other.
type DB struct {
	mu   sync.RWMutex
	rels map[string]*Relation
	// dict translates between original vertex identifiers and the dense
	// codes used inside tries; selection constants in queries are
	// expressed as original identifiers. Guarded by mu (see Dict/SetDict).
	dict *graph.Dictionary
	// version counts mutations (AddTrie, Drop, SetDict) and is the source
	// of the per-relation epochs below. No cache keys on it: a compiled
	// plan depends on no data (see Plan), a cached result on the epochs of
	// exactly the relations it read.
	version atomic.Uint64
	// epochs carries one mutation epoch per relation name (guarded by
	// mu): a relation's epoch advances exactly when that relation is
	// added, replaced, dropped, or installed from a snapshot. The result
	// cache keys on the epochs of a query's read set, so loading relation
	// R never evicts results that never read R.
	epochs map[string]uint64
	// dictEpoch advances when the identifier dictionary changes; every
	// decoded (rendered) result depends on it.
	dictEpoch uint64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{rels: map[string]*Relation{}, epochs: map[string]uint64{}}
}

// bumpLocked advances the global version and returns the new value; the
// caller must hold mu.
func (db *DB) bumpLocked() uint64 {
	return db.version.Add(1)
}

// bumpRelLocked advances relation name's epoch (and the global version);
// the caller must hold mu.
func (db *DB) bumpRelLocked(name string) {
	db.epochs[name] = db.bumpLocked()
}

// Fork returns a session-local snapshot of db: the relation bindings and
// the dictionary are copied at call time (sharing the immutable tries),
// so a forked session sees one consistent database state even while the
// original absorbs loads, and its writes (AddTrie, Drop) — intermediate
// head relations, recursion deltas — never escape the fork. The fork's
// Version starts at the snapshot's version (read before the copy, so it
// never claims to be newer than the data it holds).
func (db *DB) Fork() *DB {
	f := &DB{}
	db.mu.RLock()
	f.rels = make(map[string]*Relation, len(db.rels))
	for n, r := range db.rels {
		f.rels[n] = r
	}
	f.epochs = make(map[string]uint64, len(db.epochs))
	for n, e := range db.epochs {
		f.epochs[n] = e
	}
	f.dict = db.dict
	f.dictEpoch = db.dictEpoch
	// Read under the same lock writers bump it under, so the snapshot's
	// version always matches its data.
	f.version.Store(db.version.Load())
	db.mu.RUnlock()
	return f
}

// Dict returns the identifier dictionary (nil when relations were loaded
// from raw codes).
func (db *DB) Dict() *graph.Dictionary {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dict
}

// SetDict installs the identifier dictionary.
func (db *DB) SetDict(d *graph.Dictionary) {
	db.mu.Lock()
	db.dict = d
	db.dictEpoch = db.bumpLocked()
	db.mu.Unlock()
}

// Version is a monotone mutation counter: it advances whenever a relation
// is added, replaced or dropped, or the dictionary changes (/stats
// reports it as "epoch"). Caches use the finer per-relation epochs
// (EpochsWithDict) instead.
func (db *DB) Version() uint64 { return db.version.Load() }

// EpochOf returns relation name's mutation epoch (0 when the relation
// has never existed — a later load under that name advances it, so 0 is
// a valid "absent" epoch for cache keys).
func (db *DB) EpochOf(name string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epochs[name]
}

// EpochsWithDict returns the epochs of the given relation names plus the
// dictionary epoch, all read under one lock — the consistent validity
// vector the result cache stamps on (and checks against) each entry.
func (db *DB) EpochsWithDict(names []string) ([]uint64, uint64) {
	out := make([]uint64, len(names))
	db.mu.RLock()
	for i, n := range names {
		out[i] = db.epochs[n]
	}
	de := db.dictEpoch
	db.mu.RUnlock()
	return out, de
}

// DictEpoch returns the identifier dictionary's mutation epoch. Results
// rendered through the dictionary depend on it in addition to the epochs
// of the relations they read.
func (db *DB) DictEpoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dictEpoch
}

// InstallSnapshot atomically replaces the entire database — relations,
// per-relation epochs and WAL watermarks, and dictionary — with restored
// snapshot state, in one critical section: a concurrent Fork sees either
// the old database or the new one, never a mix. The snapshot's saved
// epochs are adopted verbatim (which is what makes snapshot → restore →
// re-snapshot byte-identical), and the global version jumps past every
// adopted epoch so later mutations stay strictly monotone. Epoch
// numbering is NOT comparable across an install — the snapshot may come
// from another process — so holders of epoch-keyed caches must flush
// them when they trigger a restore. Compiled plans need no flush: each
// execution checks its plan against the database it runs on
// (Prepared.bind) and encodes the plan's constants under its dictionary.
// Restored relations start with no overlay and overlay generation 0.
func (db *DB) InstallSnapshot(tries map[string]*trie.Trie, epochs, walSeqs map[string]uint64, dict *graph.Dictionary, dictEpoch uint64) {
	rels := make(map[string]*Relation, len(tries))
	eps := make(map[string]uint64, len(tries))
	maxE := dictEpoch
	for name, t := range tries {
		r := NewRelation(name, t)
		r.walSeq = walSeqs[name]
		rels[name] = r
		e := epochs[name]
		eps[name] = e
		if e > maxE {
			maxE = e
		}
	}
	db.mu.Lock()
	if cur := db.version.Load(); cur > maxE {
		maxE = cur
	}
	db.version.Store(maxE + 1)
	db.rels = rels
	db.epochs = eps
	db.dict = dict
	db.dictEpoch = dictEpoch
	db.mu.Unlock()
}

// Relation is a stored relation with lazily built trie indexes, one per
// (column permutation, layout policy) — the paper stores "both orders" of
// each edge relation (§2.2 "Column (Index) Order"); we generalize to any
// permutation and build on demand.
//
// A relation is immutable apart from its index cache: its trie and its
// write state are fixed at construction, so the DB installs and swaps
// whole relations, and a fork that holds one sees one consistent state.
type Relation struct {
	Name      string
	Arity     int
	Annotated bool
	Op        semiring.Op

	canonical *trie.Trie
	// mu guards the lazily built index cache: concurrent queries share
	// relations, so every access to indexes/vectors/spans goes through
	// it. Memo hits take the read lock only.
	mu      sync.RWMutex
	indexes map[indexKey]*trie.Trie
	// vectors memoizes the dense vector of a unary index (see vector),
	// keyed by layout policy like the index it reads.
	vectors map[*trie.Policy]*vector
	// spans memoizes each column's value range (see colSpan).
	spans map[int]colSpan

	// Write state of the streaming-update layer (see NewOverlayRelation).
	// When ov is non-nil, canonical is the merged view (base \ ov.Del) ∪
	// ov.Ins, and permuted indexes are assembled as base.Index(perm)
	// merged with the permuted overlay — O(overlay) per index instead of
	// re-sorting the whole merged relation. base is a plain relation
	// whose index cache every later update on top of it shares.
	base *Relation
	ov   *delta.Overlay
	// card is the tuple count: exact for a plain relation, maintained
	// batch by batch for an overlay view, so acknowledging an update
	// never walks the merged trie.
	card int
	// gen counts the update batches folded in since the relation was
	// loaded or restored (compaction carries it); walSeq is the WAL
	// applied-seq watermark, the highest WAL sequence number reflected
	// in the relation's state (0 = epoch-only lineage).
	gen, walSeq uint64
}

// NewRelation wraps a trie as a plain relation with its own index cache,
// outside any DB.
func NewRelation(name string, t *trie.Trie) *Relation {
	return newRelation(name, t, t.Cardinality())
}

func newRelation(name string, t *trie.Trie, card int) *Relation {
	return &Relation{
		Name:      name,
		Arity:     t.Arity,
		Annotated: t.Annotated,
		Op:        t.Op,
		canonical: t,
		indexes:   map[indexKey]*trie.Trie{},
		card:      card,
	}
}

// NewOverlayRelation returns the streaming-update relation base+ov: its
// trie is the merged view (base \ ov.Del) ∪ ov.Ins, card its maintained
// cardinality, gen its overlay generation and walSeq its WAL watermark.
// base must be plain (see Base). An empty overlay yields a plain
// relation over base's trie, counted exactly. The merged view is built
// under the base trie's own policy.
func NewOverlayRelation(base *Relation, ov *delta.Overlay, card int, gen, walSeq uint64) *Relation {
	var r *Relation
	if ov.IsEmpty() {
		r = newRelation(base.Name, base.canonical, base.card)
	} else {
		bt := base.canonical
		r = newRelation(base.Name, delta.MergedView(bt, ov.Ins, ov.Del, bt.Policy), card)
		r.base, r.ov = base, ov
	}
	r.gen, r.walSeq = gen, walSeq
	return r
}

// AddTrie registers (or replaces) a relation stored as a trie in natural
// column order.
func (db *DB) AddTrie(name string, t *trie.Trie) *Relation {
	r := NewRelation(name, t)
	db.Install(r)
	return r
}

// Install registers (or replaces) r under its name and advances that
// relation's epoch, so read-set-keyed result caches invalidate exactly
// the queries that read it.
func (db *DB) Install(r *Relation) {
	db.mu.Lock()
	db.rels[r.Name] = r
	db.bumpRelLocked(r.Name)
	db.mu.Unlock()
}

// Swap replaces old with r WITHOUT advancing the epoch or the global
// version — strictly for installs whose logical content is unchanged
// (the compactor folding an overlay into a fresh base). Epoch-keyed
// result caches therefore stay valid across the swap, which is what
// makes compaction invisible to clients. The swap is conditional on old
// still being the installed relation, so it can never clobber a
// concurrent load or update; it returns false when the relation moved
// on.
func (db *DB) Swap(old, r *Relation) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.rels[r.Name] != old {
		return false
	}
	db.rels[r.Name] = r
	return true
}

// AddGraph registers the graph's edge relation under the given name using
// the adjacency fast path; layout selects the storage policy (nil = the
// set-level optimizer).
func (db *DB) AddGraph(name string, g *graph.Graph, layout *trie.Policy) *Relation {
	return db.AddTrie(name, trie.FromAdjacency(g.Adj, layout))
}

// ReplaceGraph atomically installs a graph relation together with its
// identifier dictionary in one critical section and one version bump:
// a concurrent Fork sees either the old (dict, relation) pair or the new
// one, never a mix of the two.
func (db *DB) ReplaceGraph(name string, g *graph.Graph, dict *graph.Dictionary, layout *trie.Policy) *Relation {
	r := NewRelation(name, trie.FromAdjacency(g.Adj, layout))
	db.mu.Lock()
	db.rels[name] = r
	db.dict = dict
	db.bumpRelLocked(name)
	db.dictEpoch = db.epochs[name]
	db.mu.Unlock()
	return r
}

// Relation looks up a relation by name.
func (db *DB) Relation(name string) (*Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name]
	return r, ok
}

// Drop removes a relation. Dropping in a fork never affects the database
// it was forked from.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	delete(db.rels, name)
	db.bumpRelLocked(name)
	db.mu.Unlock()
}

// Names returns the registered relation names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Cardinality returns the tuple count of the relation.
func (r *Relation) Cardinality() int { return r.card }

// Canonical returns the natural-order trie.
func (r *Relation) Canonical() *trie.Trie { return r.canonical }

// HasOverlay reports whether the relation serves through a delta-overlay
// merged view (reads see base+overlay rather than a compacted trie).
func (r *Relation) HasOverlay() bool { return r.ov != nil }

// Base returns the plain relation the merged view is built on; a plain
// relation is its own base.
func (r *Relation) Base() *Relation {
	if r.base == nil {
		return r
	}
	return r.base
}

// Overlay returns the pending updates over Base (nil for a plain
// relation).
func (r *Relation) Overlay() *delta.Overlay { return r.ov }

// OverlayGen returns the number of update batches folded in since the
// relation was loaded or restored.
func (r *Relation) OverlayGen() uint64 { return r.gen }

// WALSeq returns the relation's WAL applied-seq watermark.
func (r *Relation) WALSeq() uint64 { return r.walSeq }

// Source classifies how a visible tuple enters the relation's merged
// view: "overlay" when the streaming-update insert overlay contributes
// it, "base" otherwise (including fully compacted relations). Callers
// pass tuples in the relation's natural column order and internal code
// space.
func (r *Relation) Source(tp []uint32) string {
	if r.ov != nil && r.ov.Ins.Contains(tp) {
		return "overlay"
	}
	return "base"
}

// indexKey names one index of a relation: its column permutation, one
// uvarint per column, and its layout policy.
type indexKey struct {
	perm   string
	layout *trie.Policy
}

func newIndexKey(perm []int, layout *trie.Policy) indexKey {
	var buf [16]byte
	k := buf[:0]
	for _, p := range perm {
		k = binary.AppendUvarint(k, uint64(p))
	}
	return indexKey{string(k), layout}
}

// Index returns (building and caching if needed) the trie whose level i
// stores column perm[i], under the given layout policy. The canonical
// trie is the identity index of the policy it was built under; every
// other (permutation, policy) pair is rebuilt once and cached.
func (r *Relation) Index(perm []int, layout *trie.Policy) *trie.Trie {
	if len(perm) != r.Arity {
		panic(fmt.Sprintf("exec: index perm %v for arity-%d relation %s", perm, r.Arity, r.Name))
	}
	key := newIndexKey(perm, layout)
	// Fast path: the index already exists; concurrent readers proceed in
	// parallel under the read lock.
	r.mu.RLock()
	cached, ok := r.indexes[key]
	r.mu.RUnlock()
	if ok {
		return cached
	}
	// Slow path: build under the write lock (double-checked — another
	// goroutine may have built it while we waited).
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.indexes[key]; ok {
		return t
	}
	own := r.canonical.Policy == layout // the canonical trie serves its own policy's identity
	for i, p := range perm {
		if p != i {
			own = false
		}
	}
	var t *trie.Trie
	if own {
		t = r.canonical
	} else if r.ov != nil {
		// Overlay path: permute only the (small) overlay and merge it
		// over the base's cached permuted index, instead of enumerating
		// and re-sorting the whole merged relation. Lock order is always
		// merged-relation → base-relation, never the reverse, so holding
		// r.mu across base.Index cannot deadlock.
		baseIdx := r.base.Index(perm, layout)
		t = delta.MergedView(baseIdx,
			delta.Permute(r.ov.Ins, perm, layout),
			delta.Permute(r.ov.Del, perm, layout),
			layout)
	} else {
		t = delta.Permute(r.canonical, perm, layout)
	}
	r.indexes[key] = t
	return t
}

// vector returns the dense vector of t, this relation's unary index under
// layout, built on first use and memoized beside the index. A hit takes
// the read lock only, so concurrent queries reading one relation proceed
// in parallel.
func (r *Relation) vector(t *trie.Trie, layout *trie.Policy) *vector {
	r.mu.RLock()
	vc, ok := r.vectors[layout]
	r.mu.RUnlock()
	if ok {
		return vc
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if vc, ok := r.vectors[layout]; ok {
		return vc
	}
	if r.vectors == nil {
		r.vectors = map[*trie.Policy]*vector{}
	}
	vc = newVector(t.Root)
	r.vectors[layout] = vc
	return vc
}

// colSpan is the range [lo, hi] of one column's values; ok is false when
// the column holds none.
type colSpan struct {
	lo, hi uint32
	ok     bool
}

// union returns the smallest range holding both a and b.
func (a colSpan) union(b colSpan) colSpan {
	switch {
	case !a.ok:
		return b
	case !b.ok:
		return a
	}
	return colSpan{min(a.lo, b.lo), max(a.hi, b.hi), true}
}

// colSpan returns a range holding every value of column col, memoized
// beside the indexes: a dense accumulator's span is fixed from it before
// a loop nest runs (see bagExec.accSpanOf). A plain relation walks the
// nodes of its trie's level col once. An overlay relation unions its
// base's memoized range with its inserts', O(overlay): deletes can only
// narrow the exact range, which this one covers.
func (r *Relation) colSpan(col int) (colSpan, bool) {
	r.mu.RLock()
	cs, ok := r.spans[col]
	r.mu.RUnlock()
	if ok {
		return cs, cs.ok
	}
	if r.ov != nil {
		bs, _ := r.base.colSpan(col)
		cs = bs.union(trieColSpan(r.ov.Ins, col))
	} else {
		cs = trieColSpan(r.canonical, col)
	}
	r.mu.Lock()
	if r.spans == nil {
		r.spans = map[int]colSpan{}
	}
	r.spans[col] = cs
	r.mu.Unlock()
	return cs, cs.ok
}

// trieColSpan is the range of the values at level col of t, found by
// one walk over that level's nodes.
func trieColSpan(t *trie.Trie, col int) colSpan {
	cs := colSpan{lo: math.MaxUint32}
	var walk func(n *trie.Node, depth int)
	walk = func(n *trie.Node, depth int) {
		switch {
		case n == nil || n.Set.IsEmpty():
		case depth > 0:
			for _, c := range n.Children {
				walk(c, depth-1)
			}
		default:
			cs.lo, cs.hi, cs.ok = min(cs.lo, n.Set.Min()), max(cs.hi, n.Set.Max()), true
		}
	}
	if t != nil && col < t.Arity {
		walk(t.Root, col)
	}
	return cs
}

// Options configures query execution; the zero value is the fully
// optimized engine. The ablation fields reproduce the "-R", "-RA", "-S"
// and "-GHD" rows of Tables 8, 11 and 13.
type Options struct {
	// Layout is the storage layout policy of every trie the engine
	// builds — loaded relations, indexes, intermediate and recursive
	// results (nil = the set-level optimizer, §4.4).
	Layout *trie.Policy
	// Intersect controls intersection algorithm selection (§4.2).
	Intersect set.Config
	// SingleBag forces single-bag GHDs (Table 8 "-GHD").
	SingleBag bool
	// NoPushdown disables cross-bag selection pushdown (Table 13 "-GHD").
	NoPushdown bool
	// NoBagDedup disables redundant-bag elimination (Appendix B.2).
	NoBagDedup bool
	// NaiveRecursion disables seminaive evaluation for monotone
	// aggregates: the full rule body is re-evaluated each round (§3.3
	// "Naive recursion is not an acceptable solution in applications
	// such as SSSP" — this models engines without seminaive deltas).
	NaiveRecursion bool
	// Parallelism bounds the worker count for the outer loop of each
	// bag's generic join; 0 means GOMAXPROCS.
	Parallelism int
}

// Ablations used across the benchmark suite (§5.3).
var (
	// OptDefault is the full EmptyHeaded optimizer.
	OptDefault = Options{}
	// OptNoLayout ("-R") disables SIMD-friendly layout mixing: all sets
	// stored as uint arrays.
	OptNoLayout = Options{Layout: trie.UintLayout}
	// OptNoLayoutNoAlgo ("-RA") additionally disables intersection
	// algorithm selection (scalar merge only).
	OptNoLayoutNoAlgo = Options{
		Layout:    trie.UintLayout,
		Intersect: set.Config{Algo: set.AlgoMerge},
	}
	// OptNoSIMD ("-S") keeps layouts but processes dense words
	// bit-by-bit.
	OptNoSIMD = Options{Intersect: set.Config{BitByBit: true}}
	// OptNoGHD forces single-bag plans (the LogicBlox-style plan of
	// Fig. 3b).
	OptNoGHD = Options{SingleBag: true}
)
