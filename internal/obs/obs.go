// Package obs is the serving stack's observability spine. One record
// (Request) is built per pipeline request or audit re-execution — spans,
// fingerprint, cache route, outcome, one elapsed time, phase totals,
// kernel-counter totals and the lineage that determined the result —
// and one Spine.Finish hands the finished record to two stores that
// only read it: the id-indexed ring of recent records (Ring), which
// /debug/queries, /debug/trace, /debug/workload (Profile) and the /stats
// quantiles read, and lock-free lifetime counters (Histogram and atomic
// counts) for /stats and /metrics. Beside them, the unified JSON-lines
// event log (EventLog) pins one admissible order of the system's
// state-changing events.
//
// Everything here is sized for the serving hot path: a finished request
// costs one ring insert under one short mutex hold, every counter is
// atomic, views are computed when read, and the event log only writes
// on events (executions, slow queries, WAL rotations, compactions,
// breaker transitions) — never per cache hit.
package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildInfo describes the running binary for the eh_build_info metric.
type BuildInfo struct {
	GoVersion string
	Module    string
	Revision  string
}

// ReadBuildInfo extracts build metadata from the binary. Fields the
// toolchain didn't stamp (e.g. VCS revision in a plain `go test` build)
// come back as "unknown" so the metric's label set stays stable.
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version(), Module: "unknown", Revision: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.Main.Path != "" {
		bi.Module = info.Main.Path
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			rev := s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			bi.Revision = rev
		}
	}
	return bi
}

// PromLine renders the eh_build_info gauge (value 1, metadata in
// labels — the standard Prometheus build-info idiom).
func (b BuildInfo) PromLine() string {
	return fmt.Sprintf("eh_build_info{go_version=%q,module=%q,revision=%q} 1\n",
		b.GoVersion, b.Module, b.Revision)
}
