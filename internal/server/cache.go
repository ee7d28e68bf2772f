package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"emptyheaded/internal/exec"
)

// lruCache is a mutex-guarded LRU map with hit/miss/eviction counters.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry struct {
	key string
	val any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
		c.evictions++
	}
}

// entries snapshots the cache's contents, most recently used first.
func (c *lruCache) entries() []lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*lruEntry))
	}
	return out
}

func (c *lruCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

func (c *lruCache) purge() {
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

func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// planEntry is one plan-cache slot: a fingerprint's prepared (compiled)
// program. It is valid for as long as it is cached — a plan depends on
// the query, the schema and the options, not on the data, and what it
// takes from a database is checked each time it is bound to one (see
// exec.Prepared) — so no load, update or restore touches an entry.
// attrToCanon maps the entry's final-rule variable names to their
// canonical (fingerprint) names, so results can be re-labeled for
// alpha-renamed spellings.
type planEntry struct {
	fp          string
	attrToCanon map[string]string
	prep        *exec.Prepared
	// reads is the program's conservative relation read set (sorted);
	// result-cache entries computed under this plan stamp their validity
	// with the epochs of exactly these relations.
	reads []string
}

// aliasEntry maps one exact query text to its fingerprint plus the
// reverse variable renaming (canonical name → this spelling's name) of
// its final rule, letting responses computed under another spelling's
// plan carry this client's attribute names.
type aliasEntry struct {
	fp            string
	canonToClient map[string]string
}

// planCache maps normalized-query fingerprints to prepared plans, with a
// raw-text alias layer in front: an exact textual repeat skips parsing
// entirely, while a reformatted or alpha-renamed variant re-parses but
// still reuses the compiled plan found under its fingerprint.
type planCache struct {
	aliases *lruCache // raw query text -> fingerprint
	plans   *lruCache // fingerprint   -> *planEntry
	// parses counts datalog.Parse calls taken on the miss path.
	parses atomic.Int64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		// Aliases are cheap (two small strings); give them headroom so
		// textual variants don't thrash the plan slots.
		aliases: newLRUCache(4 * capacity),
		plans:   newLRUCache(capacity),
	}
}

// PlanCacheStats extends CacheStats with plan-specific counters.
type PlanCacheStats struct {
	CacheStats
	TextHits int64 `json:"text_hits"`
	Parses   int64 `json:"parses"`
}

func (pc *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		CacheStats: pc.plans.stats(),
		TextHits:   pc.aliases.stats().Hits,
		Parses:     pc.parses.Load(),
	}
}
