package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"emptyheaded/internal/trace"
)

// ringSize is how many finished request records the spine retains: the
// records /debug/* resolve and the read-time views (/debug/workload, the
// /stats quantiles) group.
const ringSize = 256

// Spine is the observability spine: it starts each request's record,
// and one Finish hands the finished record to its two stores — the ring
// of recent whole records, and lock-free lifetime counters — and to the
// event log. The consumers only read the record; every view is computed
// from one of the two stores when it is read.
type Spine struct {
	lastID atomic.Uint64
	// Ring retains the most recently finished records.
	Ring *Ring

	// Kinds holds each registered request kind's lifetime counters;
	// Routes counts finished queries that resolved a fingerprint, one
	// counter per cache route (QueryRoutes). Both maps are filled before
	// the spine serves and only read after.
	Kinds  map[string]*KindCounts
	Routes map[string]*atomic.Int64

	// The other /metrics histograms: Phases and CacheAge are fed from
	// finished records, Fsync and Compact by core's observers.
	CacheAge, Fsync, Compact *Histogram
	Phases                   map[string]*Histogram

	events        *EventLog
	slowThreshold time.Duration
}

// KindCounts is one request kind's lifetime counters: every finished
// record of the kind is one Latency observation, and one with Error set
// (cancellations included) is one Errors count.
type KindCounts struct {
	Latency *Histogram
	Errors  atomic.Int64
}

// NewSpine builds the spine. events (nil drops them) receives one
// query_provenance event per execution and one slow_query event per
// finished request at or above slowThreshold (0 disables those).
func NewSpine(events *EventLog, slowThreshold time.Duration) *Spine {
	s := &Spine{
		Ring:          newRing(ringSize),
		Kinds:         map[string]*KindCounts{},
		Routes:        make(map[string]*atomic.Int64, len(QueryRoutes)),
		CacheAge:      NewHistogram(AgeBuckets),
		Fsync:         NewHistogram(FsyncBuckets),
		Compact:       NewHistogram(LatencyBuckets),
		Phases:        make(map[string]*Histogram, len(QueryPhases)),
		events:        events,
		slowThreshold: slowThreshold,
	}
	for _, rt := range QueryRoutes {
		s.Routes[rt] = new(atomic.Int64)
	}
	for _, p := range QueryPhases {
		s.Phases[p] = NewHistogram(LatencyBuckets)
	}
	return s
}

// Register gives a request kind its lifetime counters. Call it for every
// kind before the spine serves; records of a kind never registered
// ("audit") reach the ring, the phase histograms and the event log only.
func (s *Spine) Register(kind string) {
	s.Kinds[kind] = &KindCounts{Latency: NewHistogram(LatencyBuckets)}
}

// Start opens the record of one request of the given kind — a server
// endpoint's path without the slash ("query", "update", "load", ...) or
// "audit" — with its query text, if known yet. Every started record must
// be handed to Finish exactly once.
func (s *Spine) Start(kind, query string) *Request {
	r := &Request{Query: query}
	r.ID, r.Kind, r.Start = s.lastID.Add(1), kind, time.Now()
	r.Spans = make([]trace.Span, 0, 8)
	return r
}

// Finish stops the record's clock (if the handler has not already) and
// hands the record out: the ring, the kind's, route's and phases'
// counters, and the event log.
func (s *Spine) Finish(r *Request) {
	r.Stop()
	s.Ring.add(r)
	for name, us := range r.PhasesUS {
		s.Phases[name].Observe(time.Duration(us) * time.Microsecond)
	}
	if c := s.Kinds[r.Kind]; c != nil {
		c.Latency.Observe(r.Elapsed)
		if r.Error != "" {
			c.Errors.Add(1)
		}
	}
	if r.profiled() {
		s.Routes[r.route()].Add(1)
	}
	if r.Cached {
		s.CacheAge.Observe(r.CacheAge)
	}
	// Only executions emit their lineage: a cached serve would repeat
	// the fill's per hit, and the hit itself is already in the ring.
	if lin := r.Lineage; lin != nil && !r.Cached {
		s.events.Emit("query_provenance", r.ID, map[string]any{
			"fingerprint": lin.Fingerprint,
			"generation":  lin.Generation,
			"cardinality": lin.Cardinality,
			"relations":   lin.Relations,
		})
	}
	if s.slowThreshold > 0 && r.Elapsed >= s.slowThreshold {
		s.events.Emit("slow_query", r.ID, slowFields(r))
	}
}

// slowFields is the slow_query event body; the ts/seq/trace_id envelope
// is stamped by the event log.
func slowFields(r *Request) map[string]any {
	fields := map[string]any{"request": r.Kind, "total_us": r.TotalUS}
	if r.Fingerprint != "" {
		fields["fingerprint"] = r.Fingerprint
	}
	if len(r.PhasesUS) > 0 {
		fields["phases_us"] = r.PhasesUS
	}
	if len(r.Attrs) > 0 {
		attrs := make(map[string]string, len(r.Attrs))
		for _, a := range r.Attrs {
			attrs[a.Key] = a.Val
		}
		fields["attrs"] = attrs
	}
	if r.Error != "" {
		fields["error"] = r.Error
	}
	return fields
}

// RingStats is the record ring's occupancy: slots, slots in use, and
// records filed since boot.
type RingStats struct {
	Capacity int    `json:"capacity"`
	Retained int    `json:"retained"`
	Total    uint64 `json:"total"`
}

// Ring retains the most recently finished records in finish order, with
// O(1) lookup by id (ids are handed out at Start, so finish order is not
// id order: a slow request must stay resolvable after faster, younger
// ones finished around it).
type Ring struct {
	mu    sync.Mutex
	buf   []*Request
	next  int // buf[next] is the oldest slot
	total uint64
	byID  map[uint64]*Request
}

func newRing(n int) *Ring {
	return &Ring{buf: make([]*Request, n), byID: make(map[uint64]*Request, n)}
}

func (g *Ring) add(r *Request) {
	g.mu.Lock()
	if old := g.buf[g.next]; old != nil {
		delete(g.byID, old.ID)
	}
	g.buf[g.next] = r
	g.byID[r.ID] = r
	g.next = (g.next + 1) % len(g.buf)
	g.total++
	g.mu.Unlock()
}

// Get returns the finished record with the given id while it is retained.
func (g *Ring) Get(id uint64) (*Request, bool) {
	g.mu.Lock()
	r, ok := g.byID[id]
	g.mu.Unlock()
	return r, ok
}

// Recent returns up to max records, newest first (max <= 0: every
// retained one).
func (g *Ring) Recent(max int) []*Request {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.retained()
	if max > 0 && max < n {
		n = max
	}
	out := make([]*Request, n)
	for i := range out {
		out[i] = g.buf[(g.next-1-i+len(g.buf))%len(g.buf)]
	}
	return out
}

func (g *Ring) retained() int {
	return int(min(g.total, uint64(len(g.buf))))
}

// Stats reports the ring's occupancy.
func (g *Ring) Stats() RingStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return RingStats{Capacity: len(g.buf), Retained: g.retained(), Total: g.total}
}
