// Package obs is the serving stack's observability spine. One record
// (Request) is built per /query, /update or audit request — spans,
// fingerprint, cache route, outcome, one elapsed time, phase totals,
// kernel-counter totals and the lineage that determined the result —
// and one Spine.Finish hands the finished record to consumers that only
// read it: the id-indexed ring behind /debug/queries and /debug/trace,
// the per-fingerprint workload registry (Workload), the /metrics latency
// histograms (Histogram), and the unified JSON-lines event log
// (EventLog), which also pins one admissible order of the system's
// state-changing events.
//
// Everything here is sized for the serving hot path: a finished request
// costs one ring insert and one short mutex hold per consumer (not per
// tuple), histogram observations are atomic, and the event log only
// writes on events (executions, slow queries, WAL rotations,
// compactions, breaker transitions) — never per cache hit.
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
