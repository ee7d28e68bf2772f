package obs

import (
	"container/list"
	"maps"
	"sort"
	"sync"
	"time"
)

// fpSampleWindow bounds the per-fingerprint exact-quantile window.
// 256 samples × 8 bytes × the registry capacity bounds the memory
// (512 KiB at the 256-entry registry); p50/p99 are computed over the
// most recent window, like the endpoint latency windows.
const fpSampleWindow = 256

// fpStat is one fingerprint's cumulative aggregate: the wire row, kept
// up to date except for the fields snapshot derives (averages,
// quantiles, rendered timestamps). Guarded by the owning Workload's
// mutex.
type fpStat struct {
	FingerprintStats
	firstSeen, lastSeen time.Time
	window              Window
}

// Workload is the bounded per-fingerprint registry: an LRU-evicted map
// merging every finished query into its fingerprint's cumulative
// aggregate. One short mutex hold per request.
type Workload struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently observed
	items    map[string]*list.Element
	totals   WorkloadTotals
}

// NewWorkload builds a registry holding at most capacity fingerprints.
func NewWorkload(capacity int) *Workload {
	return &Workload{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Observe merges one finished query record into its fingerprint's
// aggregate. Records that never resolved a fingerprint (parse errors,
// sheds before the plan lookup) are dropped.
func (w *Workload) Observe(r *Request) {
	if r.Fingerprint == "" {
		return
	}
	route := r.Route
	if route == "" {
		route = RouteMiss
	}
	failed := r.Error != "" && !r.Cancelled

	w.mu.Lock()
	defer w.mu.Unlock()
	w.totals.Observed++
	switch route {
	case RouteResultHit:
		w.totals.ResultHits++
	case RoutePlanHit:
		w.totals.PlanHits++
	default:
		w.totals.Misses++
	}
	var st *fpStat
	if el, ok := w.items[r.Fingerprint]; ok {
		w.ll.MoveToFront(el)
		st = el.Value.(*fpStat)
	} else {
		st = &fpStat{firstSeen: time.Now(), window: NewWindow(fpSampleWindow)}
		st.Fingerprint = r.Fingerprint
		st.Routes = map[string]int64{RouteResultHit: 0, RoutePlanHit: 0, RouteMiss: 0}
		w.items[r.Fingerprint] = w.ll.PushFront(st)
		for w.ll.Len() > w.capacity {
			last := w.ll.Back()
			w.ll.Remove(last)
			delete(w.items, last.Value.(*fpStat).Fingerprint)
			w.totals.Evictions++
		}
	}
	st.lastSeen = time.Now()
	if r.ID != 0 {
		st.LastTraceID = r.ID
	}
	if st.Query == "" {
		st.Query = r.Query
	}
	st.Count++
	if failed {
		st.Errors++
		w.totals.Errors++
	}
	if r.Cancelled {
		st.Cancels++
		w.totals.Cancels++
	}
	st.Routes[route]++
	us := r.Elapsed.Microseconds()
	st.TotalUS += us
	st.MaxUS = max(st.MaxUS, us)
	for p, v := range r.PhasesUS {
		if st.PhasesUS == nil {
			st.PhasesUS = map[string]int64{}
		}
		st.PhasesUS[p] += v
	}
	st.Rows += r.Rows
	st.window.Add(r.Elapsed)
}

// FingerprintStats is one registry row, JSON-shaped for /debug/workload.
type FingerprintStats struct {
	Fingerprint string `json:"fingerprint"`
	// Query is one spelling of the fingerprint (the first one seen).
	Query   string `json:"query,omitempty"`
	Count   int64  `json:"count"`
	Errors  int64  `json:"errors,omitempty"`
	Cancels int64  `json:"cancels,omitempty"`
	// Routes breaks Count down by cache route.
	Routes map[string]int64 `json:"routes"`
	// Latency aggregates: lifetime total/avg/max, windowed p50/p99
	// (nearest-rank over the recent sample window).
	TotalUS int64   `json:"total_us"`
	AvgUS   float64 `json:"avg_us"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	MaxUS   int64   `json:"max_us"`
	// PhasesUS sums the lifecycle-phase breakdowns across runs.
	PhasesUS map[string]int64 `json:"phases_us,omitempty"`
	// Rows sums response cardinalities, cached serves included.
	Rows        int64  `json:"rows"`
	LastTraceID uint64 `json:"last_trace_id,omitempty"`
	FirstSeen   string `json:"first_seen"`
	LastSeen    string `json:"last_seen"`
}

// snapshot copies the row out from under the mutex and fills in the
// derived fields.
func (st *fpStat) snapshot() FingerprintStats {
	out := st.FingerprintStats
	out.Routes = maps.Clone(st.Routes)
	out.PhasesUS = maps.Clone(st.PhasesUS)
	out.AvgUS = float64(st.TotalUS) / float64(st.Count)
	out.P50US, out.P99US = st.window.P50P99US()
	out.FirstSeen = st.firstSeen.UTC().Format(time.RFC3339Nano)
	out.LastSeen = st.lastSeen.UTC().Format(time.RFC3339Nano)
	return out
}

// Workload sort keys for TopK.
const (
	SortCount   = "count"
	SortLatency = "latency"
	SortRows    = "rows"
)

// TopK snapshots the registry's top k fingerprints under the given sort
// key (SortCount by default; ties break by fingerprint so repeated
// snapshots are stable). k <= 0 returns every retained fingerprint.
func (w *Workload) TopK(sortKey string, k int) []FingerprintStats {
	w.mu.Lock()
	rows := make([]FingerprintStats, 0, w.ll.Len())
	for el := w.ll.Front(); el != nil; el = el.Next() {
		rows = append(rows, el.Value.(*fpStat).snapshot())
	}
	w.mu.Unlock()
	less := func(a, b *FingerprintStats) bool { return a.Count > b.Count }
	switch sortKey {
	case SortLatency:
		less = func(a, b *FingerprintStats) bool { return a.TotalUS > b.TotalUS }
	case SortRows:
		less = func(a, b *FingerprintStats) bool { return a.Rows > b.Rows }
	}
	sort.Slice(rows, func(i, j int) bool {
		if less(&rows[i], &rows[j]) {
			return true
		}
		if less(&rows[j], &rows[i]) {
			return false
		}
		return rows[i].Fingerprint < rows[j].Fingerprint
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// WorkloadTotals is the registry's global counter snapshot for /stats
// and /metrics.
type WorkloadTotals struct {
	Fingerprints int   `json:"fingerprints"`
	Capacity     int   `json:"capacity"`
	Observed     int64 `json:"observed"`
	Evictions    int64 `json:"evictions"`
	ResultHits   int64 `json:"result_hits"`
	PlanHits     int64 `json:"plan_hits"`
	Misses       int64 `json:"misses"`
	Errors       int64 `json:"errors"`
	Cancels      int64 `json:"cancels"`
}

// Totals snapshots the global counters.
func (w *Workload) Totals() WorkloadTotals {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.totals
	t.Fingerprints, t.Capacity = w.ll.Len(), w.capacity
	return t
}
