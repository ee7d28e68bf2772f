package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"emptyheaded/internal/exec"
	"emptyheaded/internal/obs"
)

// handleMetrics serves the same counters as /stats in the Prometheus text
// exposition format (version 0.0.4), so load-test runs can be scraped
// alongside the benchmark artifacts. Everything is rendered from one
// StatsSnapshot for a consistent view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.StatsSnapshot()
	var sb strings.Builder

	// header opens a family; gauge and counter are families of one
	// unlabeled sample (an integer count, or float seconds).
	header := func(name, kind, help string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	}
	gaugeHeader := func(name, help string) { header(name, "gauge", help) }
	counterHeader := func(name, help string) { header(name, "counter", help) }
	gauge := func(name, help string, v float64) {
		gaugeHeader(name, help)
		fmt.Fprintf(&sb, "%s %g\n", name, v)
	}
	counter := func(name, help string, v any) {
		counterHeader(name, help)
		fmt.Fprintf(&sb, "%s %v\n", name, v)
	}

	gauge("emptyheaded_uptime_seconds", "Seconds since the server started.", st.UptimeS)
	gauge("emptyheaded_db_epoch", "Database mutation counter (cache invalidation epoch).", float64(st.Epoch))
	gauge("emptyheaded_relations", "Number of stored relations.", float64(st.Relations))

	// Per-endpoint request counters and latency quantiles, in a stable
	// order so scrapes diff cleanly.
	paths := make([]string, 0, len(st.Endpoints))
	for p := range st.Endpoints {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	counterHeader("emptyheaded_requests_total", "Requests served per endpoint.")
	for _, p := range paths {
		fmt.Fprintf(&sb, "emptyheaded_requests_total{endpoint=%q} %d\n", p, st.Endpoints[p].Requests)
	}
	counterHeader("emptyheaded_request_errors_total", "Requests answered with a 4xx/5xx status per endpoint.")
	for _, p := range paths {
		fmt.Fprintf(&sb, "emptyheaded_request_errors_total{endpoint=%q} %d\n", p, st.Endpoints[p].Errors)
	}
	gaugeHeader("emptyheaded_request_latency_us", "Request latency over the retained records, in microseconds.")
	for _, p := range paths {
		ep := st.Endpoints[p]
		fmt.Fprintf(&sb, "emptyheaded_request_latency_us{endpoint=%q,quantile=\"0.5\"} %g\n", p, ep.P50US)
		fmt.Fprintf(&sb, "emptyheaded_request_latency_us{endpoint=%q,quantile=\"0.99\"} %g\n", p, ep.P99US)
		fmt.Fprintf(&sb, "emptyheaded_request_latency_us{endpoint=%q,quantile=\"1.0\"} %g\n", p, ep.MaxUS)
	}

	cache := func(prefix string, cs exec.CacheStats) {
		gauge(prefix+"_size", "Entries currently cached.", float64(cs.Size))
		gauge(prefix+"_capacity", "Cache capacity.", float64(cs.Capacity))
		counter(prefix+"_hits_total", "Cache hits.", cs.Hits)
		counter(prefix+"_misses_total", "Cache misses.", cs.Misses)
		counter(prefix+"_evictions_total", "Cache evictions.", cs.Evictions)
	}
	cache("emptyheaded_plan_cache", st.PlanCache.CacheStats)
	counter("emptyheaded_plan_cache_text_hits_total", "Exact-text alias hits that skipped parsing.", st.PlanCache.TextHits)
	counter("emptyheaded_plan_cache_parses_total", "datalog parses taken on the miss path.", st.PlanCache.Parses)
	cache("emptyheaded_result_cache", st.ResultCache)

	// Streaming-update subsystem: WAL, overlays, compaction, replay.
	d := st.Durability
	counter("emptyheaded_updates_total", "Streaming update batches applied.", d.Updates)
	counter("emptyheaded_update_rows_total", "Inserted + deleted rows across update batches.", d.UpdateRows)
	if d.WAL.Enabled {
		counter("emptyheaded_wal_records_total", "Records appended to the write-ahead log.", d.WAL.Records)
		counter("emptyheaded_wal_bytes_total", "Payload bytes appended to the write-ahead log.", d.WAL.Bytes)
		counter("emptyheaded_wal_fsyncs_total", "Explicit WAL fsyncs.", d.WAL.Fsyncs)
		counter("emptyheaded_wal_fsync_seconds_total", "Total WAL fsync latency in seconds.", float64(d.WAL.FsyncNanos)/1e9)
		gauge("emptyheaded_wal_segments", "Live WAL segment files.", float64(d.WAL.Segments))
		gauge("emptyheaded_wal_seq", "Last assigned WAL sequence number.", float64(d.WAL.Seq))
		gauge("emptyheaded_wal_replay_records", "Records replayed from the WAL on boot.", float64(d.Replay.Records))
		gauge("emptyheaded_wal_replay_duration_seconds", "WAL replay duration on boot, in seconds.", float64(d.Replay.DurationUS)/1e6)
	}
	counter("emptyheaded_compactions_total", "Delta-overlay compactions run.", d.Compactions)
	counter("emptyheaded_compact_seconds_total", "Total compaction wall time in seconds.", float64(d.CompactTotalUS)/1e6)
	gaugeHeader("emptyheaded_overlay_rows", "Live delta-overlay rows (pending inserts + tombstones) per relation.")
	for _, ov := range d.Overlays {
		fmt.Fprintf(&sb, "emptyheaded_overlay_rows{relation=%q} %d\n", ov.Relation, ov.Rows)
	}
	gaugeHeader("emptyheaded_overlay_bytes", "Estimated delta-overlay bytes per relation and side (ins/del).")
	for _, ov := range d.Overlays {
		fmt.Fprintf(&sb, "emptyheaded_overlay_bytes{relation=%q,side=\"ins\"} %d\n", ov.Relation, ov.InsBytes)
		fmt.Fprintf(&sb, "emptyheaded_overlay_bytes{relation=%q,side=\"del\"} %d\n", ov.Relation, ov.DelBytes)
	}

	// Latency histograms. Phase histograms share one family under a
	// phase label; the rest are unlabeled single-series families.
	histogram := func(name, help string, h *obs.Histogram) {
		header(name, "histogram", help)
		h.Snapshot().WriteProm(&sb, name, "")
	}
	histogram("emptyheaded_query_seconds", "End-to-end /query latency (cached serves included).", s.obs.Kinds["query"].Latency)
	header("emptyheaded_query_phase_seconds", "histogram", "Per-phase /query latency breakdown.")
	for _, p := range obs.QueryPhases {
		s.obs.Phases[p].Snapshot().WriteProm(&sb, "emptyheaded_query_phase_seconds", fmt.Sprintf("phase=%q", p))
	}
	histogram("emptyheaded_update_seconds", "End-to-end /update latency.", s.obs.Kinds["update"].Latency)
	histogram("emptyheaded_result_cache_age_seconds", "Result-cache entry age at serve time.", s.obs.CacheAge)
	if d.WAL.Enabled {
		histogram("emptyheaded_wal_fsync_seconds", "WAL fsync latency.", s.obs.Fsync)
	}
	histogram("emptyheaded_compaction_seconds", "Delta-overlay compaction duration.", s.obs.Compact)

	gauge("emptyheaded_admission_workers", "Worker slots.", float64(st.Admission.Workers))
	gauge("emptyheaded_admission_queue_depth", "Admission queue capacity.", float64(st.Admission.QueueDepth))
	gauge("emptyheaded_admission_active", "Queries executing now.", float64(st.Admission.Active))
	gauge("emptyheaded_admission_queued", "Requests waiting for a worker slot.", float64(st.Admission.Queued))
	counter("emptyheaded_admission_admitted_total", "Requests admitted to a worker slot.", st.Admission.Admitted)
	counterHeader("emptyheaded_admission_rejected_total", "Requests rejected by the admission controller.")
	fmt.Fprintf(&sb, "emptyheaded_admission_rejected_total{reason=\"queue_full\"} %d\n", st.Admission.RejectedFull)
	fmt.Fprintf(&sb, "emptyheaded_admission_rejected_total{reason=\"queue_timeout\"} %d\n", st.Admission.RejectedTimeout)

	// Failure contract: panics survived, clients that hung up, budgets
	// blown, and the durability breaker behind degraded read-only mode.
	counter("emptyheaded_recovered_panics_total", "Panics recovered at the request and executor boundaries.", s.res.recoveredPanics.Load())
	counter("emptyheaded_query_cancelled_total", "Queries abandoned by their client before completion.", s.res.cancelledClients.Load())
	counter("emptyheaded_query_deadline_exceeded_total", "Queries stopped by the per-request deadline budget.", s.res.deadlineExceeded.Load())
	counter("emptyheaded_breaker_trips_total", "Durability circuit-breaker trips into degraded mode.", s.brk.trips.Load())
	degraded := 0.0
	if !s.brk.allow() {
		degraded = 1
	}
	gauge("emptyheaded_degraded", "1 while the server is in degraded read-only mode, else 0.", degraded)
	counter("emptyheaded_degraded_rejected_total", "Writes fast-failed while degraded.", s.res.degradedRejected.Load())

	// Cache effectiveness as ready-made ratios (hits/(hits+misses); 0
	// before any lookup), plus the finished queries' route breakdown.
	ratio := func(cs exec.CacheStats) float64 {
		if total := cs.Hits + cs.Misses; total > 0 {
			return float64(cs.Hits) / float64(total)
		}
		return 0
	}
	gaugeHeader("emptyheaded_cache_hit_ratio", "Cache hit ratio (hits/(hits+misses)) per cache.")
	fmt.Fprintf(&sb, "emptyheaded_cache_hit_ratio{cache=\"plan\"} %g\n", ratio(st.PlanCache.CacheStats))
	fmt.Fprintf(&sb, "emptyheaded_cache_hit_ratio{cache=\"result\"} %g\n", ratio(st.ResultCache))
	counterHeader("emptyheaded_query_route_total", "Finished queries that resolved a fingerprint, per cache route.")
	for _, rt := range obs.QueryRoutes {
		fmt.Fprintf(&sb, "emptyheaded_query_route_total{route=%q} %d\n", rt, s.obs.Routes[rt].Load())
	}
	ev := st.Events
	counter("emptyheaded_events_total", "Events written to the unified event log.", ev.Events)
	counter("emptyheaded_event_log_rotations_total", "Size-triggered event-log rotations.", ev.Rotations)
	counter("emptyheaded_event_log_dropped_total", "Events dropped on marshal/write failure.", ev.Dropped)

	// The result-cache self-auditor's counters. eh_audit_mismatch_total is
	// the alerting signal — any nonzero value means the cache served bytes
	// the current data no longer determines.
	pv := st.Provenance
	counter("eh_audit_checks_total", "Result-cache audit re-executions (sampled + on-demand sweeps).", pv.Audit.Checks)
	counter("eh_audit_mismatch_total", "Cache audits whose re-execution disagreed with the served bytes.", pv.Audit.Mismatches)
	counter("eh_audit_evicted_total", "Cache entries evicted by the auditor.", pv.Audit.Evicted)

	// Standard build-info gauge: constant 1, metadata in the labels.
	gaugeHeader("eh_build_info", "Build metadata of the serving binary.")
	sb.WriteString(obs.ReadBuildInfo().PromLine())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(sb.String()))
}
