package obs

import (
	"slices"
	"time"

	"emptyheaded/internal/trace"
)

// QueryPhases are the top-level /query lifecycle spans; each gets its
// own latency histogram in /metrics and a slot in every phases_us map.
// (Nested spans — per-bag execution, WAL fsync attribution — live only
// in the trace itself.)
var QueryPhases = []string{"admission", "plan", "execute", "render", "cache_fill"}

// Cache routes a finished query can have taken; a record carries
// exactly one. A request that failed before its plan resolved books as
// RouteMiss.
const (
	RouteResultHit = "result_hit"
	RoutePlanHit   = "plan_hit"
	RouteMiss      = "miss"
)

// QueryRoutes lists the cache routes in their /metrics order.
var QueryRoutes = []string{RouteResultHit, RoutePlanHit, RouteMiss}

// Request is the one observation record of a request the server's
// pipeline runs, or of one audit re-execution. The pipeline creates it
// (Spine.Start), it is written while the request runs — by exactly the
// writers named below — and one Spine.Finish hands it to the consumers,
// which only read it: the id-indexed ring behind /debug/* and the
// read-time views, the lifetime counters behind /stats and /metrics,
// and the event log. After Finish the record is immutable.
type Request struct {
	// Trace holds ID, Kind and Start (set by Start), the spans (written
	// by the handler, exec's loop nest and core's update path), the
	// trace attributes, Fingerprint and Error (handler), and TotalUS
	// (Stop).
	trace.Trace

	// Written by the handler as the request proceeds.
	Query string // one spelling of the query text ("" for updates)
	Route string // RouteResultHit / RoutePlanHit / RouteMiss once the plan resolved
	// Cancelled marks a client disconnect or deadline trip: Error is set,
	// but /debug/workload counts a cancel, not a query failure.
	Cancelled bool
	Rows      int64 // response cardinality
	// Lineage is what determined the result: built by the executing
	// request, or — Cached — the fill-time value of the served entry,
	// shared and never copied. CacheAge is that entry's age at serve.
	Lineage  *Lineage
	Cached   bool
	CacheAge time.Duration

	// Written once by Stop: the request's single clock reading and the
	// per-phase totals folded from the top-level spans (nil when the
	// request recorded none).
	Elapsed  time.Duration
	PhasesUS map[string]int64
	stopped  bool
}

// Stop reads the request clock — once. The first call fixes Elapsed,
// TotalUS and PhasesUS; later calls (Finish, after a handler already
// stamped its response) return the same reading, so the response's
// elapsed_us, the latency histogram and the ring agree.
// Call it only after execution returned: no span writer may be running.
func (r *Request) Stop() time.Duration {
	if r.stopped {
		return r.Elapsed
	}
	r.stopped = true
	r.Elapsed = r.Trace.Finish()
	for i := range r.Spans {
		if sp := &r.Spans[i]; slices.Contains(QueryPhases, sp.Name) {
			if r.PhasesUS == nil {
				r.PhasesUS = make(map[string]int64, len(QueryPhases))
			}
			r.PhasesUS[sp.Name] += sp.DurUS
		}
	}
	return r.Elapsed
}

// Provenance is the record's lineage in its wire shape: the executing
// request's own, or, for a result-cache hit, the fill-time lineage —
// the state that determined the bytes served — under this request's
// trace id with cached:true. Nil when the request resolved no lineage.
func (r *Request) Provenance() *Lineage {
	if r.Lineage == nil || !r.Cached {
		return r.Lineage
	}
	v := *r.Lineage // shallow: Relations stays shared
	v.TraceID, v.Cached, v.At = r.ID, true, r.Start
	return &v
}

// profiled reports whether the record is a query that resolved a
// fingerprint: what the route counters and /debug/workload count.
func (r *Request) profiled() bool { return r.Kind == "query" && r.Fingerprint != "" }

// route is the record's cache route; a query that failed before its
// plan resolved booked none and counts as a miss.
func (r *Request) route() string {
	if r.Route == "" {
		return RouteMiss
	}
	return r.Route
}
