package exec

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"emptyheaded/internal/datalog"
)

// LRU is a mutex-guarded least-recently-used map from strings to V with
// hit, miss and eviction counters.
type LRU[V any] struct {
	mu                      sync.Mutex
	capacity                int
	ll                      *list.List // of *LRUEntry[V]; front = most recently used
	items                   map[string]*list.Element
	hits, misses, evictions int64
}

// LRUEntry is one key of an LRU and its value.
type LRUEntry[V any] struct {
	Key string
	Val V
}

// NewLRU returns an empty LRU holding at most capacity entries.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns key's value and counts a hit, or counts a miss. A value
// valid rejects counts as a miss and stays until a Put replaces it; valid
// (nil accepts every value) runs under the cache's lock and must not
// block.
func (c *LRU[V]) Get(key string, valid func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || valid != nil && !valid(el.Value.(*LRUEntry[V]).Val) {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*LRUEntry[V]).Val, true
}

// Put stores val under key as the most recently used entry, evicting the
// least recently used ones beyond capacity.
func (c *LRU[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*LRUEntry[V]).Val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&LRUEntry[V]{Key: key, Val: val})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*LRUEntry[V]).Key)
		c.evictions++
	}
}

// Entries snapshots the cache's contents, most recently used first.
func (c *LRU[V]) Entries() []LRUEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LRUEntry[V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*LRUEntry[V]))
	}
	return out
}

// Remove drops key, if present.
func (c *LRU[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// Purge drops every entry; the counters keep counting.
func (c *LRU[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
}

// CacheStats is the JSON rendering of one cache's counters.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats returns the cache's size, capacity and counters.
func (c *LRU[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Size: c.ll.Len(), Capacity: c.capacity, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// planCacheSize bounds the plan cache. Its alias LRU keeps four times as
// many texts: an alias is two small strings and a map, and textual
// variants of one query should not thrash the plan slots.
const planCacheSize = 256

// PlanCache holds preparations by program fingerprint
// (datalog.Fingerprint: variables renamed, constants kept) behind an LRU
// of exact query texts: a repeated text finds its plan without parsing,
// and an alpha-renamed or reformatted spelling parses once and reuses the
// plan kept under its fingerprint. No load, update or restore touches an
// entry: what a plan takes from a database is checked each time it runs
// on one (Prepared.bind). It is safe for concurrent use.
type PlanCache struct {
	aliases *LRU[*PlanAlias]
	plans   *LRU[*CachedPlan]
	parses  atomic.Int64 // booked by Prepare
}

// PlanAlias is one query text's entry: its fingerprint and the renaming
// (canonical name → this text's name) of its final rule's variables.
type PlanAlias struct {
	FP          string
	canonToText map[string]string
}

// CachedPlan is one fingerprint's preparation.
type CachedPlan struct {
	Prep        *Prepared
	FP          string
	Reads       []string          // the program's relation read set, sorted
	attrToCanon map[string]string // final-rule variable, as the preparing text spells it → canonical name
	opts        Options           // what the plan was prepared under
}

// PlanLookup is how far one query text got through the cache: text →
// alias → plan.
type PlanLookup struct {
	Alias *PlanAlias  // nil: the text is unknown, or its alias aged out
	Plan  *CachedPlan // nil: no plan under the alias's fingerprint and the options
	Hit   bool        // Plan came from the cache: this lookup planned nothing
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{
		aliases: NewLRU[*PlanAlias](4 * planCacheSize),
		plans:   NewLRU[*CachedPlan](planCacheSize),
	}
}

// Lookup walks text through the cache without parsing, stopping at the
// first miss: one counted alias get and, when the alias is known, one
// counted plan get. A plan prepared under other options is a miss, which
// Prepare replaces.
func (c *PlanCache) Lookup(text string, opts Options) PlanLookup {
	var lk PlanLookup
	if lk.Alias, _ = c.aliases.Get(text, nil); lk.Alias != nil {
		lk.Plan, lk.Hit = c.plan(lk.Alias.FP, opts)
	}
	return lk
}

// plan is one counted get of fp's plan, prepared under opts.
func (c *PlanCache) plan(fp string, opts Options) (*CachedPlan, bool) {
	return c.plans.Get(fp, func(p *CachedPlan) bool { return p.opts == opts })
}

// Prepare ends the plan step for a text Lookup could not take there. It
// books the parse prog came from, records text's alias, and takes the
// fingerprint's cached plan — unless Lookup already missed on it — or
// prepares prog against db and caches that. A text whose program does
// not prepare gets no alias.
func (c *PlanCache) Prepare(db *DB, text string, prog *datalog.Program, opts Options, lk *PlanLookup) error {
	c.parses.Add(1)
	varMap := prog.FinalVarMap()
	fp := prog.Fingerprint()
	if lk.Alias == nil {
		lk.Plan, lk.Hit = c.plan(fp, opts)
	}
	lk.Alias = &PlanAlias{FP: fp, canonToText: make(map[string]string, len(varMap))}
	for v, canon := range varMap {
		lk.Alias.canonToText[canon] = v
	}
	if lk.Plan == nil {
		prep, err := Prepare(db, prog, opts)
		if err != nil {
			return err
		}
		lk.Plan = &CachedPlan{Prep: prep, FP: fp, Reads: prog.Relations(), attrToCanon: varMap, opts: opts}
		c.plans.Put(fp, lk.Plan)
	}
	c.aliases.Put(text, lk.Alias)
	return nil
}

// PlanCacheStats is the plan LRU's counters plus the exact-text alias
// hits (lookups that skipped parsing) and the parses booked on the miss
// path.
type PlanCacheStats struct {
	CacheStats
	TextHits int64 `json:"text_hits"`
	Parses   int64 `json:"parses"`
}

// Stats returns the cache's counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		CacheStats: c.plans.Stats(),
		TextHits:   c.aliases.Stats().Hits,
		Parses:     c.parses.Load(),
	}
}

// Canon relabels the attributes of a result computed under p with their
// canonical names.
func (p *CachedPlan) Canon(attrs []string) []string { return mapAttrs(attrs, p.attrToCanon) }

// Label relabels canonical attribute names with a's spelling.
func (a *PlanAlias) Label(attrs []string) []string { return mapAttrs(attrs, a.canonToText) }

// mapAttrs relabels attrs through m, keeping names m doesn't cover.
func mapAttrs(attrs []string, m map[string]string) []string {
	out := slices.Clone(attrs)
	for i, a := range attrs {
		if v, ok := m[a]; ok {
			out[i] = v
		}
	}
	return out
}
