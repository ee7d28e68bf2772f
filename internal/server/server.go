// Package server is EmptyHeaded's query service: an HTTP/JSON facade over
// core.Engine that serves concurrent datalog queries through the engine's
// plan cache (exec.PlanCache, keyed by normalized query fingerprints, so
// repeated queries skip parsing and GHD optimization the way the paper's
// compiler amortizes codegen across runs), with a result cache
// invalidated on relation mutation and a bounded worker-pool admission
// controller.
//
// Endpoints:
//
//	POST /query     {"query": "...", "limit": 100}        run a datalog program
//	POST /explain   {"query": "..."}                      render the physical plan
//	GET  /relations                                       catalog of stored relations
//	POST /load      {"name": "Edge", "path"|"edges"|...}  load a relation, invalidate caches
//	POST /update    {"name": "Edge", "inserts"|...}       stream inserts/deletes (WAL + delta overlay)
//	POST /compact   {"name": "Edge"}                      fold a relation's overlay into its base
//	POST /snapshot  {"dir": "/data/snap"}                 persist the database (binary snapshot)
//	POST /restore   {"dir": "/data/snap"}                 replace the database from a snapshot
//	GET  /stats                                           per-endpoint latency + cache counters
//	GET  /metrics                                         the same counters in Prometheus text format
//	GET  /healthz                                         liveness
package server

import (
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/obs"
)

// Config sizes the service; zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrently executing queries (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot: 4×Workers;
	// beyond it requests 503 at once. Up to Workers more are executing,
	// so Workers+QueueDepth requests can be in flight. Tests set it to
	// make shedding immediate; eh-server leaves it derived.
	QueueDepth int
	// QueueWait bounds time spent waiting for a worker slot (default 2s).
	QueueWait time.Duration
	// ResultCacheSize is the number of cached query results (default 128).
	ResultCacheSize int
	// MaxCachedTuples: results with more tuples than this are not cached
	// (default 65536).
	MaxCachedTuples int
	// DefaultLimit caps tuples rendered in a response when the request
	// doesn't set its own limit (default 1000).
	DefaultLimit int
	// DataDir is the default snapshot directory for /snapshot and
	// /restore requests that don't name one (and the directory eh-server
	// auto-restores from on boot / snapshots to on SIGTERM). Empty means
	// requests must name a directory explicitly.
	DataDir string
	// SlowQueryThreshold: finished requests at or above it are written
	// to Events as one slow_query event each (0 disables them).
	SlowQueryThreshold time.Duration
	// QueryDeadline bounds one /query request end to end — admission
	// wait, plan, execute, and render all share the budget — via a
	// context deadline that trips the loop nest's cooperative stop
	// flag. 0 means no budget (the request context still cancels on
	// client disconnect).
	QueryDeadline time.Duration
	// RetryAfter is the Retry-After hint attached to shed 503s
	// (admission, degraded mode, durability failures): 1s. Only tests
	// set it.
	RetryAfter time.Duration
	// BreakerThreshold is how many consecutive durability failures trip
	// the read-only circuit breaker (default 3; < 0 disables it).
	BreakerThreshold int
	// BreakerProbe paces the tripped breaker's background disk probes:
	// 1s. Tests shorten it to make recovery fast; eh-server does not set it.
	BreakerProbe time.Duration
	// Events is the unified structured event log (query provenance,
	// slow queries, WAL rotations, compactions, snapshots, breaker
	// transitions, panics, boot phases). Nil drops them.
	Events *obs.EventLog
	// AuditFraction is the probability that one result-cache serve
	// triggers a background self-audit of the served entry (the entry's
	// query re-executes uncached and the responses are compared; a
	// mismatch evicts the entry and emits an audit_mismatch event). 0
	// disables sampling — POST /debug/audit still sweeps on demand.
	AuditFraction float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	if c.MaxCachedTuples <= 0 {
		c.MaxCachedTuples = 65536
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 1000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerProbe <= 0 {
		c.BreakerProbe = time.Second
	}
	return c
}

// Server wraps one engine behind the HTTP query service. The engine's
// Opts must not be mutated once the server is serving.
type Server struct {
	eng     *core.Engine
	cfg     Config
	results *exec.LRU[*cachedResult]
	adm     *admission
	start   time.Time

	// obs starts every pipeline and audit request's record and hands the
	// finished record to its two stores, the record ring and the
	// lifetime counters, and to the event log (cfg.Events, which also
	// takes the events of no request: breaker, boot, core's
	// WAL/compaction/snapshot events).
	obs *obs.Spine

	// gen is the database generation: it advances on every /restore.
	// Result-cache keys embed it because snapshot epochs are adopted
	// verbatim on install and are NOT comparable across generations — a
	// query in flight during a restore would otherwise cache a
	// pre-restore result whose epoch stamps can collide with the restored
	// database's epochs and be served as fresh.
	gen atomic.Uint64

	// brk is the durability circuit breaker behind degraded read-only
	// mode; res holds the failure-contract counters /metrics exports;
	// bootPhase (a string) feeds /readyz.
	brk       *breaker
	res       resilience
	bootPhase atomic.Value

	// audit holds the result-cache self-auditor's counters.
	audit auditCounters

	// mux is filled by routes.
	mux *http.ServeMux
}

// New builds a server over eng. When the engine doesn't pin per-query
// parallelism explicitly, it is set so that Workers concurrent queries
// together use roughly GOMAXPROCS goroutines.
func New(eng *core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if eng.Opts.Parallelism == 0 {
		if p := runtime.GOMAXPROCS(0) / cfg.Workers; p > 1 {
			eng.Opts.Parallelism = p
		} else {
			eng.Opts.Parallelism = 1
		}
	}
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		results: exec.NewLRU[*cachedResult](cfg.ResultCacheSize),
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth, cfg.QueueWait),
		start:   time.Now(),
		obs:     obs.NewSpine(cfg.Events, cfg.SlowQueryThreshold),
		mux:     http.NewServeMux(),
	}
	s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerProbe, eng.ProbeDurability)
	// Breaker transitions land in the event log as paired breaker +
	// degraded-mode events.
	s.brk.notify = func(kind string, fields map[string]any) {
		switch kind {
		case "breaker_trip":
			s.cfg.Events.Emit(kind, 0, fields)
			s.cfg.Events.Emit("degraded_enter", 0, nil)
		case "breaker_recover":
			s.cfg.Events.Emit(kind, 0, fields)
			s.cfg.Events.Emit("degraded_exit", 0, nil)
		}
	}
	// Embedders serve a pre-loaded engine: ready from the start.
	// eh-server walks the phase through its boot sequence instead.
	s.bootPhase.Store("ready")
	// Feed the core subsystems' latency events (WAL fsyncs, overlay
	// compactions) into the server's histograms, and its state-changing
	// events (rotations, compactions, snapshots, replay) into the
	// unified event log.
	eng.SetObservers(core.Observers{
		WALFsync:   s.obs.Fsync.Observe,
		Compaction: s.obs.Compact.Observe,
		Event:      func(kind string, fields map[string]any) { s.cfg.Events.Emit(kind, 0, fields) },
	})
	s.routes()
	return s
}

// Close releases the server's background resources (the breaker's
// probe loop). The HTTP listener is owned by the caller.
func (s *Server) Close() { s.brk.close() }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler { return s.mux }

// routes builds the mux. The work-doing endpoints go through the request
// pipeline (pipeline.go), which also registers their kinds' /stats
// counters; the rest are read-only views with no record of their own.
func (s *Server) routes() {
	pipeline(s, "/query", post, s.query)
	pipeline(s, "/explain", post|admit, s.explain)
	pipeline(s, "/relations", 0, s.relations)
	pipeline(s, "/load", post|admit, s.load)
	pipeline(s, "/update", post|write|admit, s.update)
	pipeline(s, "/compact", post|admit, s.compact)
	pipeline(s, "/snapshot", post|admit, s.snapshot)
	pipeline(s, "/restore", post|admit, s.restore)
	pipeline(s, "/stats", 0, s.stats)
	pipeline(s, "/debug/audit", post, s.auditSweep)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/trace/", s.handleDebugTrace)
	s.mux.HandleFunc("/debug/workload", s.handleDebugWorkload)
	s.mux.HandleFunc("/debug/relations", s.handleDebugRelations)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
}

// Stats is the /stats reply.
type Stats struct {
	UptimeS     float64                  `json:"uptime_s"`
	Epoch       uint64                   `json:"epoch"`
	Relations   int                      `json:"relations"`
	Endpoints   map[string]EndpointStats `json:"endpoints"`
	PlanCache   exec.PlanCacheStats      `json:"plan_cache"`
	ResultCache exec.CacheStats          `json:"result_cache"`
	Admission   AdmissionStats           `json:"admission"`
	Durability  core.DurabilityStats     `json:"durability"`
	Resilience  ResilienceStats          `json:"resilience"`
	// Events summarizes the unified event log.
	Events obs.EventLogStats `json:"events"`
	// Provenance summarizes the request-record ring and the result-cache
	// auditor.
	Provenance ProvenanceStats `json:"provenance"`
}

// ResilienceStats is the failure-contract section of /stats.
type ResilienceStats struct {
	RecoveredPanics  int64 `json:"recovered_panics"`
	CancelledClients int64 `json:"cancelled_clients"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	BreakerTrips     int64 `json:"breaker_trips"`
	Degraded         bool  `json:"degraded"`
	DegradedRejected int64 `json:"degraded_rejected"`
}

// StatsSnapshot returns the same payload /stats serves (used by the load
// generator to diff cache counters around a run).
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		UptimeS:     time.Since(s.start).Seconds(),
		Epoch:       s.eng.Version(),
		Relations:   len(s.eng.DB.Names()),
		Endpoints:   s.endpointStats(),
		PlanCache:   s.eng.Plans().Stats(),
		ResultCache: s.results.Stats(),
		Admission:   s.adm.stats(),
		Durability:  s.eng.Durability(),
		Resilience: ResilienceStats{
			RecoveredPanics:  s.res.recoveredPanics.Load(),
			CancelledClients: s.res.cancelledClients.Load(),
			DeadlineExceeded: s.res.deadlineExceeded.Load(),
			BreakerTrips:     s.brk.trips.Load(),
			Degraded:         !s.brk.allow(),
			DegradedRejected: s.res.degradedRejected.Load(),
		},
		Events:     s.cfg.Events.Stats(),
		Provenance: s.provenanceStats(),
	}
}
