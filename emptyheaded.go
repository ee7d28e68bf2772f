// Package emptyheaded is a Go implementation of EmptyHeaded, the
// relational engine for graph processing of Aberger, Tu, Olukotun and Ré
// (SIGMOD 2016).
//
// EmptyHeaded executes a datalog-like query language over trie-stored
// relations. Query plans are generalized hypertree decompositions (GHDs);
// within each GHD bag the engine runs the generic worst-case optimal join,
// and across bags Yannakakis' algorithm. The storage engine picks set
// layouts (uint vs bitset) and intersection algorithms (shuffle vs
// galloping) per set based on density and cardinality skew.
//
// Quick start:
//
//	eng := emptyheaded.New()
//	eng.LoadGraph("Edge", g)                 // *graph.Graph, or LoadEdgeList
//	res, err := eng.Run(`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)
//	fmt.Println(res.Scalar())                // triangle count
//
// To serve queries over HTTP with plan/result caching and admission
// control, run cmd/eh-server (see internal/server and the README's curl
// quickstart).
//
// See README.md for the architecture; cmd/eh-bench prints the paper's
// tables and benchmark/README.md describes the engine's benchmark.
package emptyheaded

import (
	"io"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// Engine is an EmptyHeaded database + query engine instance.
type Engine struct {
	c *core.Engine
}

// Result is the output of a query: a relation (tuples with optional
// semiring annotations) or a scalar.
type Result = exec.Result

// Graph re-exports the graph substrate type accepted by LoadGraph.
type Graph = graph.Graph

// Option configures an Engine.
type Option func(*exec.Options)

// WithUintLayout stores every set as a sorted uint array, disabling the
// SIMD-friendly layout optimizer (the paper's "-R" ablation).
func WithUintLayout() Option {
	return func(o *exec.Options) { o.Layout = trie.UintLayout }
}

// WithBitsetLayout forces the bitset layout for every set.
func WithBitsetLayout() Option {
	return func(o *exec.Options) { o.Layout = trie.BitsetLayout }
}

// WithCompositeLayout forces the block-level composite layout.
func WithCompositeLayout() Option {
	return func(o *exec.Options) { o.Layout = trie.CompositeLayout }
}

// WithMergeOnly disables intersection-algorithm selection (scalar merge
// everywhere; combined with WithUintLayout this is the paper's "-RA").
func WithMergeOnly() Option {
	return func(o *exec.Options) { o.Intersect.Algo = set.AlgoMerge }
}

// WithoutSIMD processes dense words bit-by-bit (the "-S" ablation).
func WithoutSIMD() Option {
	return func(o *exec.Options) { o.Intersect.BitByBit = true }
}

// WithSingleBagPlans forces single-bag GHDs (the "-GHD" ablation; the
// plan shape of engines without GHD optimizers, like LogicBlox).
func WithSingleBagPlans() Option {
	return func(o *exec.Options) { o.SingleBag = true }
}

// WithoutSelectionPushdown disables cross-bag selection pushdown
// (Table 13's "-GHD").
func WithoutSelectionPushdown() Option {
	return func(o *exec.Options) { o.NoPushdown = true }
}

// WithParallelism bounds the number of worker goroutines per join.
func WithParallelism(n int) Option {
	return func(o *exec.Options) { o.Parallelism = n }
}

// New returns an engine; options select ablations and tuning.
func New(opts ...Option) *Engine {
	var o exec.Options
	for _, f := range opts {
		f(&o)
	}
	return &Engine{c: core.NewWithOptions(o)}
}

// LoadGraph registers a graph as the binary edge relation name.
func (e *Engine) LoadGraph(name string, g *Graph) { e.c.LoadGraph(name, g) }

// LoadEdgeList reads a "src dst" edge list and registers it as relation
// name; vertex identifiers are dictionary encoded (§2.2 of the paper).
func (e *Engine) LoadEdgeList(name string, r io.Reader, undirected bool) error {
	return e.c.LoadEdgeList(name, r, undirected)
}

// AddRelation registers a relation from raw tuples.
func (e *Engine) AddRelation(name string, arity int, tuples [][]uint32) {
	e.c.AddRelation(name, arity, tuples)
}

// AddAnnotatedRelation registers a relation whose tuples carry semiring
// annotations ("SUM", "MIN", "MAX", "COUNT").
func (e *Engine) AddAnnotatedRelation(name string, arity int, aggregate string, tuples [][]uint32, anns []float64) error {
	op, err := semiring.ParseOp(aggregate)
	if err != nil {
		return err
	}
	return e.c.AddAnnotatedRelation(name, arity, op, tuples, anns)
}

// Alias makes alias another name for target (pattern queries conventionally
// spell the edge relation R, S, T, …).
func (e *Engine) Alias(alias, target string) error { return e.c.Alias(alias, target) }

// Run parses and executes a datalog program and returns the result of the
// final rule group.
func (e *Engine) Run(query string) (*Result, error) { return e.c.Run(query) }

// Explain renders the physical plan of a single-rule query: the GHD, the
// global attribute order, and the generated loop nest (Figure 1).
func (e *Engine) Explain(query string) (string, error) { return e.c.Explain(query) }

// RunAnalyze executes a query with live kernel counters enabled and
// returns the result together with the plan annotated with actuals —
// per-level intersection counts, input/output cardinalities, and wall
// time per bag (EXPLAIN ANALYZE). Multi-rule and recursive programs run
// without a pinned plan and return an empty annotation.
func (e *Engine) RunAnalyze(query string) (*Result, string, error) { return e.c.RunAnalyze(query) }

// Why probes why tuple (a spec like "T(1,2,3)") is in the query's
// output: the final rule re-runs with the output bindings pinned as
// selection constants, and each body relation lists the contributing
// rows that join under them, classified base vs overlay (fact
// attribution — see docs/PROVENANCE.md and `eh-query -why`).
func (e *Engine) Why(query, tuple string) (*core.WhyReport, error) {
	return e.c.Why(query, tuple)
}

// Insert streams tuples into a relation without rebuilding its trie:
// the rows land in the relation's delta overlay and queries see the
// merged view immediately (see docs/DURABILITY.md). A relation that
// doesn't exist yet is created with the tuples' arity.
func (e *Engine) Insert(name string, tuples [][]uint32) error {
	cols, err := core.RowsToColumns(tuples)
	if err != nil {
		return err
	}
	_, err = e.c.Update(core.UpdateBatch{Rel: name, InsCols: cols})
	return err
}

// Delete streams full-tuple deletes into a relation (deleting an
// absent tuple is a no-op).
func (e *Engine) Delete(name string, tuples [][]uint32) error {
	cols, err := core.RowsToColumns(tuples)
	if err != nil {
		return err
	}
	_, err = e.c.Update(core.UpdateBatch{Rel: name, DelCols: cols})
	return err
}

// Compact folds a relation's pending overlay into a fresh base trie
// (queries are unaffected; the overlay simply resets).
func (e *Engine) Compact(name string) error {
	_, err := e.c.Compact(name)
	return err
}
