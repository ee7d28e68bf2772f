package server

import (
	"time"

	"emptyheaded/internal/obs"
)

// EndpointStats is the JSON rendering of one endpoint's counters:
// requests, errors and the average over the process lifetime, the
// quantiles and the maximum over the ring's retained records of the
// endpoint (0 when none is retained).
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	AvgUS    float64 `json:"avg_us"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
	MaxUS    float64 `json:"max_us"`
}

// endpointStats reads every pipeline kind's lifetime counters and groups
// the retained records by kind for the quantiles, keyed by path.
func (s *Server) endpointStats() map[string]EndpointStats {
	retained := map[string][]time.Duration{}
	for _, r := range s.obs.Ring.Recent(0) {
		retained[r.Kind] = append(retained[r.Kind], r.Elapsed)
	}
	eps := make(map[string]EndpointStats, len(s.obs.Kinds))
	for kind, c := range s.obs.Kinds {
		lat := c.Latency.Snapshot()
		st := EndpointStats{Requests: int64(lat.Count), Errors: c.Errors.Load()}
		if lat.Count > 0 {
			st.AvgUS = lat.SumSeconds * 1e6 / float64(lat.Count)
		}
		st.P50US, st.P99US, st.MaxUS = obs.Quantiles(retained[kind])
		eps["/"+kind] = st
	}
	return eps
}
