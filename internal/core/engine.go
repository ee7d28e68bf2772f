// Package core ties EmptyHeaded together: the query compiler (datalog →
// GHD → physical plan), the execution engine, and graph/relation loading.
// It is the paper's primary contribution assembled behind one facade
// (Figure 1): query compiler → code generation → execution engine with
// automatic algorithmic and layout decisions.
package core

import (
	"fmt"
	"io"
	"sync"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/storage"
	"emptyheaded/internal/trie"
)

// Engine is an EmptyHeaded instance: a database of trie-stored relations
// plus execution options. Loading and querying are safe for concurrent
// use; Run mutates the shared database (head relations persist), while
// RunIsolated executes against a session-local fork so concurrent queries
// never observe each other's intermediates.
type Engine struct {
	DB   *exec.DB
	Opts exec.Options
	// mu guards restored and lastSnaps; the DB carries its own
	// synchronization.
	mu sync.RWMutex
	// restored holds the storage handle of every Restore, keeping their
	// mmap'd segments alive for the tries that alias them (see
	// Engine.Restore for the lifecycle discussion).
	restored []*storage.Database
	// lastSnaps remembers, per snapshot directory, the catalog this
	// engine last wrote to (or restored from) it; Snapshot passes it to
	// storage.WriteIncremental so relations whose epoch hasn't advanced
	// reuse their existing checksummed segments. Guarded by mu. The
	// epochs are only comparable because they come from this engine's
	// own lifetime — never seed the map from a foreign catalog.
	lastSnaps map[string]*storage.Catalog
	// upd owns the streaming-update subsystem: the WAL handle and the
	// compaction configuration and state (see update.go). upd.mu
	// serializes every update — the WAL append order is the apply
	// order, which is what makes replay deterministic.
	upd updState
	// plans is the engine's one plan cache: Run, RunAnalyze and a query
	// server over this engine resolve every text through it.
	plans *exec.PlanCache
}

// New returns an engine with the full optimizer enabled.
func New() *Engine {
	e := &Engine{
		DB:        exec.NewDB(),
		lastSnaps: map[string]*storage.Catalog{},
		plans:     exec.NewPlanCache(),
	}
	e.upd.compacting = map[string]bool{}
	e.upd.compactRatio = DefaultCompactRatio
	e.upd.compactMin = DefaultCompactMin
	return e
}

// NewWithOptions returns an engine with explicit execution options
// (ablations, layout policies, parallelism).
func NewWithOptions(opts exec.Options) *Engine {
	e := New()
	e.Opts = opts
	return e
}

// LoadGraph registers a graph as the binary edge relation `name`.
func (e *Engine) LoadGraph(name string, g *graph.Graph) {
	e.DB.AddGraph(name, g, e.Opts.Layout)
}

// LoadGraphWithDict registers a graph and its identifier dictionary as
// one atomic installation: concurrent forks never observe the new
// dictionary paired with the old relation (or vice versa).
func (e *Engine) LoadGraphWithDict(name string, g *graph.Graph, dict *graph.Dictionary) {
	e.DB.ReplaceGraph(name, g, dict, e.Opts.Layout)
}

// LoadEdgeList reads a "src dst" edge list, dictionary-encodes it, and
// registers it as relation `name`. The dictionary becomes the engine's
// constant-resolution dictionary.
func (e *Engine) LoadEdgeList(name string, r io.Reader, undirected bool) error {
	g, dict, err := graph.ParseEdgeList(r, undirected)
	if err != nil {
		return err
	}
	e.LoadGraphWithDict(name, g, dict)
	return nil
}

// AddRelation registers an arbitrary relation from tuples: rows are
// transposed into columns in one pass and handed to the columnar builder,
// skipping the per-tuple Add path entirely.
func (e *Engine) AddRelation(name string, arity int, tuples [][]uint32) {
	e.DB.AddTrie(name, trie.FromColumns(transpose(arity, tuples), nil, semiring.None, e.Opts.Layout))
}

// AddAnnotatedRelation registers an annotated relation via the same
// columnar bulk path.
func (e *Engine) AddAnnotatedRelation(name string, arity int, op semiring.Op, tuples [][]uint32, anns []float64) error {
	if len(tuples) != len(anns) {
		return fmt.Errorf("core: %d tuples, %d annotations", len(tuples), len(anns))
	}
	e.DB.AddTrie(name, trie.FromColumns(transpose(arity, tuples), anns, op, e.Opts.Layout))
	return nil
}

// AddRelationColumns registers a relation given column-wise: cols[i]
// holds attribute i of every row, anns is nil for un-annotated relations.
// The columns are handed to the trie builder zero-copy (the engine takes
// ownership).
func (e *Engine) AddRelationColumns(name string, cols [][]uint32, anns []float64, op semiring.Op) error {
	n := -1
	for _, c := range cols {
		if n < 0 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("core: ragged columns (%d vs %d rows)", len(c), n)
		}
	}
	if anns != nil && n >= 0 && len(anns) != n {
		return fmt.Errorf("core: %d rows, %d annotations", n, len(anns))
	}
	e.DB.AddTrie(name, trie.FromColumns(cols, anns, op, e.Opts.Layout))
	return nil
}

// transpose flips row-major tuples into column-major slices, allocating
// each column exactly once.
func transpose(arity int, tuples [][]uint32) [][]uint32 {
	cols := make([][]uint32, arity)
	for c := range cols {
		cols[c] = make([]uint32, len(tuples))
	}
	for i, t := range tuples {
		if len(t) != arity {
			panic(fmt.Sprintf("core: tuple arity %d, want %d", len(t), arity))
		}
		for c, v := range t {
			cols[c][i] = v
		}
	}
	return cols
}

// Alias registers `alias` as another name for relation `target` (the
// paper's pattern queries spell the edge relation R, S, T, …).
func (e *Engine) Alias(alias, target string) error {
	rel, ok := e.DB.Relation(target)
	if !ok {
		return fmt.Errorf("core: unknown relation %s", target)
	}
	e.DB.AddTrie(alias, rel.Canonical())
	return nil
}

// Run executes a datalog program, returning the result of its final rule
// group under the program's own variable names. Intermediate head
// relations stay registered in the database.
func (e *Engine) Run(query string) (*exec.Result, error) {
	return e.run(e.DB, query, exec.RunParams{})
}

// RunAnalyze executes a query with the EXPLAIN ANALYZE counters enabled
// and returns the result together with the physical plan annotated with
// actuals (per-level intersection counts, cardinalities, wall time; see
// exec.Plan.ExplainAnalyze). The counters describe one plan's bags:
// multi-rule and recursive programs return an empty annotation.
func (e *Engine) RunAnalyze(query string) (*exec.Result, string, error) {
	res, err := e.run(e.DB, query, exec.RunParams{Collect: true})
	if err != nil {
		return nil, "", err
	}
	var text string
	if res.Plan != nil && res.Stats != nil {
		text = res.Plan.ExplainAnalyze(res.Stats)
	}
	return res, text, nil
}

// run executes query's cached preparation against db (the engine's
// database or a fork of it) and relabels the result's attributes with
// query's spelling: the plan may have been prepared for an alpha-renamed
// one.
func (e *Engine) run(db *exec.DB, query string, rp exec.RunParams) (*exec.Result, error) {
	lk, err := e.prepared(query)
	if err != nil {
		return nil, err
	}
	res, err := lk.Plan.Prep.RunWith(db, rp)
	if err != nil {
		return nil, err
	}
	res.Attrs = lk.Alias.Label(lk.Plan.Canon(res.Attrs))
	return res, nil
}

// prepared resolves query through the plan cache, parsing and planning
// only when the cache has no plan for it under the current options. A hit
// plans nothing, for any program shape: every rule's plan, the starred
// rule of a recursion included, is derived once per preparation.
func (e *Engine) prepared(query string) (exec.PlanLookup, error) {
	lk := e.plans.Lookup(query, e.Opts)
	if lk.Plan != nil {
		return lk, nil
	}
	prog, err := datalog.Parse(query)
	if err != nil {
		return lk, err
	}
	return lk, e.plans.Prepare(e.DB, query, prog, e.Opts, &lk)
}

// Plans returns the engine's plan cache.
func (e *Engine) Plans() *exec.PlanCache { return e.plans }

// RunIsolated executes an already parsed program against a fork of the
// database: intermediate and final head relations stay session-local, so
// any number of RunIsolated calls may proceed concurrently with each
// other (and with loads). Embedders serving concurrent queries should
// use this instead of Run. It plans afresh on every call.
func (e *Engine) RunIsolated(prog *datalog.Program) (*exec.Result, error) {
	return exec.RunProgram(e.DB.Fork(), prog, e.Opts)
}

// Version exposes the database mutation counter (/stats "epoch").
func (e *Engine) Version() uint64 { return e.DB.Version() }

// RelationInfo is a catalog row describing one stored relation.
type RelationInfo struct {
	Name        string `json:"name"`
	Arity       int    `json:"arity"`
	Cardinality int    `json:"cardinality"`
	Annotated   bool   `json:"annotated"`
}

// Relations returns catalog rows for every stored relation, sorted by
// name.
func (e *Engine) Relations() []RelationInfo {
	var out []RelationInfo
	for _, n := range e.DB.Names() {
		r, ok := e.DB.Relation(n)
		if !ok {
			continue // dropped between Names and lookup
		}
		out = append(out, RelationInfo{
			Name:        r.Name,
			Arity:       r.Arity,
			Cardinality: r.Cardinality(),
			Annotated:   r.Annotated,
		})
	}
	return out
}

// Explain compiles the (single-rule) query and renders its physical plan
// in the paper's generated-code shape (Figure 1).
func (e *Engine) Explain(query string) (string, error) {
	rule, err := datalog.ParseRule(query)
	if err != nil {
		return "", err
	}
	p, err := exec.Compile(e.DB, rule, e.Opts)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}
