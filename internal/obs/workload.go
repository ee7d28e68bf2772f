package obs

import (
	"slices"
	"sort"
	"time"
)

// Quantiles sorts ds in place and returns its nearest-rank median and
// 99th percentile and its maximum, in microseconds (zeros when empty).
func Quantiles(ds []time.Duration) (p50, p99, max float64) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	slices.Sort(ds)
	us := func(pct int) float64 {
		// Nearest rank: the ceil(pct·n/100)-th smallest sample.
		return float64(ds[(pct*len(ds)+99)/100-1].Microseconds())
	}
	return us(50), us(99), us(100)
}

// FingerprintStats is one /debug/workload row: the retained query
// records of one fingerprint.
type FingerprintStats struct {
	Fingerprint string `json:"fingerprint"`
	// Query is one spelling of the fingerprint (the oldest retained).
	Query   string `json:"query,omitempty"`
	Count   int64  `json:"count"`
	Errors  int64  `json:"errors,omitempty"`
	Cancels int64  `json:"cancels,omitempty"`
	// Routes breaks Count down by cache route.
	Routes map[string]int64 `json:"routes"`
	// Latency aggregates; p50/p99 are nearest rank.
	TotalUS int64   `json:"total_us"`
	AvgUS   float64 `json:"avg_us"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	MaxUS   int64   `json:"max_us"`
	// PhasesUS sums the lifecycle-phase breakdowns across runs.
	PhasesUS map[string]int64 `json:"phases_us,omitempty"`
	// Rows sums response cardinalities, cached serves included.
	Rows int64 `json:"rows"`
	// LastTraceID is the newest record; Provenance is its lineage.
	LastTraceID uint64   `json:"last_trace_id,omitempty"`
	FirstSeen   string   `json:"first_seen"`
	LastSeen    string   `json:"last_seen"`
	Provenance  *Lineage `json:"provenance,omitempty"`
}

// WorkloadTotals sums the /debug/workload rows before the row limit.
type WorkloadTotals struct {
	Fingerprints int   `json:"fingerprints"`
	Observed     int64 `json:"observed"`
	ResultHits   int64 `json:"result_hits"`
	PlanHits     int64 `json:"plan_hits"`
	Misses       int64 `json:"misses"`
	Errors       int64 `json:"errors"`
	Cancels      int64 `json:"cancels"`
}

// Workload sort keys for Profile.
const (
	SortCount   = "count"
	SortLatency = "latency"
	SortRows    = "rows"
)

// Profile groups the queries among recs that resolved a fingerprint —
// recs newest first, as Ring.Recent returns them — into one row per
// fingerprint, and returns the totals and the top n rows under sortKey
// (SortCount by default; ties break by fingerprint, so repeated reads are
// stable). n <= 0 returns every row.
func Profile(recs []*Request, sortKey string, n int) (WorkloadTotals, []FingerprintStats) {
	var t WorkloadTotals
	type group struct {
		row         *FingerprintStats
		first, last time.Time
		lats        []time.Duration
	}
	groups := map[string]*group{}
	var rows []*FingerprintStats
	for _, r := range recs {
		if !r.profiled() {
			continue
		}
		seen := r.Start.Add(r.Elapsed)
		g := groups[r.Fingerprint]
		if g == nil { // the fingerprint's newest record
			g = &group{last: seen, row: &FingerprintStats{
				Fingerprint: r.Fingerprint,
				Routes:      map[string]int64{RouteResultHit: 0, RoutePlanHit: 0, RouteMiss: 0},
				LastTraceID: r.ID,
				Provenance:  r.Provenance(),
			}}
			groups[r.Fingerprint] = g
			rows = append(rows, g.row)
		}
		g.first = seen
		row := g.row
		if r.Query != "" {
			row.Query = r.Query
		}
		row.Count++
		t.Observed++
		route := r.route()
		row.Routes[route]++
		switch route {
		case RouteResultHit:
			t.ResultHits++
		case RoutePlanHit:
			t.PlanHits++
		default:
			t.Misses++
		}
		if r.Cancelled {
			row.Cancels++
			t.Cancels++
		} else if r.Error != "" {
			row.Errors++
			t.Errors++
		}
		us := r.Elapsed.Microseconds()
		row.TotalUS += us
		row.MaxUS = max(row.MaxUS, us)
		for p, v := range r.PhasesUS {
			if row.PhasesUS == nil {
				row.PhasesUS = map[string]int64{}
			}
			row.PhasesUS[p] += v
		}
		row.Rows += r.Rows
		g.lats = append(g.lats, r.Elapsed)
	}
	t.Fingerprints = len(rows)
	for _, g := range groups {
		row := g.row
		row.AvgUS = float64(row.TotalUS) / float64(row.Count)
		row.P50US, row.P99US, _ = Quantiles(g.lats)
		row.FirstSeen = g.first.UTC().Format(time.RFC3339Nano)
		row.LastSeen = g.last.UTC().Format(time.RFC3339Nano)
	}

	key := func(r *FingerprintStats) int64 { return r.Count }
	switch sortKey {
	case SortLatency:
		key = func(r *FingerprintStats) int64 { return r.TotalUS }
	case SortRows:
		key = func(r *FingerprintStats) int64 { return r.Rows }
	}
	sort.Slice(rows, func(i, j int) bool {
		if a, b := key(rows[i]), key(rows[j]); a != b {
			return a > b
		}
		return rows[i].Fingerprint < rows[j].Fingerprint
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	out := make([]FingerprintStats, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return t, out
}
