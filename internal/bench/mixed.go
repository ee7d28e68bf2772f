package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emptyheaded/internal/obs"
)

// MixedConfig drives the mixed update/query workload: QueryConcurrency
// workers replay the query mix while UpdateConcurrency workers stream
// insert/delete batches to /update, both against the same live server —
// the "serving under churn" benchmark.
type MixedConfig struct {
	// URL is the server base URL.
	URL string
	// Queries is the replayed query mix (default: the built-in mix over
	// Relation).
	Queries []string
	// Relation is the updated (and default-queried) edge relation.
	Relation string
	// QueryConcurrency / UpdateConcurrency size the two worker pools
	// (defaults 6 and 2).
	QueryConcurrency  int
	UpdateConcurrency int
	// Duration is the measurement window (default 5s).
	Duration time.Duration
	// Timeout bounds one request (default 30s).
	Timeout time.Duration
	// Limit caps tuples per query response (default 10).
	Limit int
	// BatchRows is the rows per update batch (default 64).
	BatchRows int
	// DeleteFrac is the fraction of update batches that delete a
	// previously inserted batch instead of inserting (default 0.5, so
	// the relation's cardinality stays roughly steady under churn).
	DeleteFrac float64
	// KeySpace bounds the random vertex ids (default 1<<20 — mostly new
	// edges, exercising overlay growth and compaction).
	KeySpace int
	// Seed makes the update stream reproducible.
	Seed int64
	// NoResultCache sets no_cache on queries (churn invalidates the
	// updated relation's entries anyway; this measures pure execution).
	NoResultCache bool
	// Retry configures shed-response (503/429) retries; the zero value
	// takes the policy defaults (3 attempts, 50ms jittered backoff).
	Retry RetryPolicy
}

// MixedReport aggregates one mixed run.
type MixedReport struct {
	Elapsed time.Duration

	// Query side (successful responses only).
	QueryRequests   int64
	QueryErrors     int64
	QueryThroughput float64
	QueryP50        time.Duration
	QueryP95        time.Duration
	QueryP99        time.Duration

	// Retries counts backoff-and-resend cycles taken on shed (503/429)
	// responses across both worker pools.
	Retries int64

	// Update side.
	UpdateBatches    int64
	UpdateRows       int64
	UpdateErrors     int64
	UpdatesPerSecond float64
	RowsPerSecond    float64
	UpdateP50        time.Duration
	UpdateP99        time.Duration

	// Server-side durability deltas over the run (zero when /stats is
	// unavailable).
	WALRecords  int64
	Compactions int64
	OverlayRows int64
}

type durabilityCounters struct {
	walRecords  int64
	compactions int64
	overlayRows int64
}

func fetchDurability(client *http.Client, url string) (durabilityCounters, bool) {
	var out durabilityCounters
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return out, false
	}
	defer resp.Body.Close()
	var payload struct {
		Durability struct {
			WAL struct {
				Records int64 `json:"records"`
			} `json:"wal"`
			Compactions int64 `json:"compactions"`
			Overlays    []struct {
				Rows int64 `json:"rows"`
			} `json:"overlays"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return out, false
	}
	out.walRecords = payload.Durability.WAL.Records
	out.compactions = payload.Durability.Compactions
	for _, ov := range payload.Durability.Overlays {
		out.overlayRows += ov.Rows
	}
	return out, true
}

// RunMixed replays a query mix and an update stream concurrently
// against a live eh-server and reports update throughput plus query
// latency under churn.
func RunMixed(cfg MixedConfig) (*MixedReport, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("bench: mixed workload needs a server URL")
	}
	if cfg.Relation == "" {
		cfg.Relation = "Edge"
	}
	if len(cfg.Queries) == 0 {
		cfg.Queries = DefaultQueryMix(cfg.Relation)
	}
	if cfg.QueryConcurrency <= 0 {
		cfg.QueryConcurrency = 6
	}
	if cfg.UpdateConcurrency <= 0 {
		cfg.UpdateConcurrency = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 10
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 64
	}
	if cfg.DeleteFrac < 0 || cfg.DeleteFrac > 1 {
		cfg.DeleteFrac = 0.5
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 1 << 20
	}
	url := strings.TrimSuffix(cfg.URL, "/")
	conns := cfg.QueryConcurrency + cfg.UpdateConcurrency + 2
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		},
	}
	before, haveStats := fetchDurability(client, url)

	type queryBody struct {
		Query   string `json:"query"`
		Limit   int    `json:"limit"`
		NoCache bool   `json:"no_cache,omitempty"`
	}
	queryBodies := make([][]byte, len(cfg.Queries))
	for i, q := range cfg.Queries {
		b, err := json.Marshal(queryBody{Query: q, Limit: cfg.Limit, NoCache: cfg.NoResultCache})
		if err != nil {
			return nil, err
		}
		queryBodies[i] = b
	}

	var (
		wg         sync.WaitGroup
		qRequests  atomic.Int64
		qErrors    atomic.Int64
		uBatches   atomic.Int64
		uRows      atomic.Int64
		uErrors    atomic.Int64
		mu         sync.Mutex
		queryLats  []time.Duration
		updateLats []time.Duration
	)
	rc := NewRetryClient(client, cfg.Retry)
	post := func(path string, body []byte) (bool, time.Duration) {
		t0 := time.Now()
		resp, err := rc.Post(url+path, "application/json", body)
		d := time.Since(t0)
		if err != nil {
			return false, d
		}
		ok := resp.StatusCode == http.StatusOK
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return ok, d
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)

	for w := 0; w < cfg.QueryConcurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			for i := w; time.Now().Before(deadline); i++ {
				ok, d := post("/query", queryBodies[i%len(queryBodies)])
				qRequests.Add(1)
				if !ok {
					qErrors.Add(1)
					continue
				}
				local = append(local, d)
			}
			mu.Lock()
			queryLats = append(queryLats, local...)
			mu.Unlock()
		}(w)
	}

	type updateBody struct {
		Name          string     `json:"name"`
		InsertColumns [][]uint32 `json:"insert_columns,omitempty"`
		DeleteColumns [][]uint32 `json:"delete_columns,omitempty"`
	}
	for w := 0; w < cfg.UpdateConcurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			var local []time.Duration
			// Ring of previously inserted batches available for deletion,
			// keeping cardinality roughly steady under sustained churn.
			var ring [][][]uint32
			randBatch := func() [][]uint32 {
				cols := [][]uint32{make([]uint32, cfg.BatchRows), make([]uint32, cfg.BatchRows)}
				for i := 0; i < cfg.BatchRows; i++ {
					cols[0][i] = uint32(rng.Intn(cfg.KeySpace))
					cols[1][i] = uint32(rng.Intn(cfg.KeySpace))
				}
				return cols
			}
			for time.Now().Before(deadline) {
				var body updateBody
				body.Name = cfg.Relation
				if len(ring) > 0 && rng.Float64() < cfg.DeleteFrac {
					body.DeleteColumns = ring[0]
					ring = ring[1:]
				} else {
					cols := randBatch()
					body.InsertColumns = cols
					ring = append(ring, cols)
				}
				b, err := json.Marshal(body)
				if err != nil {
					uErrors.Add(1)
					continue
				}
				ok, d := post("/update", b)
				uBatches.Add(1)
				uRows.Add(int64(cfg.BatchRows))
				if !ok {
					uErrors.Add(1)
					continue
				}
				local = append(local, d)
			}
			mu.Lock()
			updateLats = append(updateLats, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &MixedReport{
		Elapsed:       elapsed,
		QueryRequests: qRequests.Load(),
		QueryErrors:   qErrors.Load(),
		Retries:       rc.Retries(),
		UpdateBatches: uBatches.Load(),
		UpdateRows:    uRows.Load(),
		UpdateErrors:  uErrors.Load(),
	}
	window := cfg.Duration
	if elapsed < window {
		window = elapsed
	}
	if window > 0 {
		rep.QueryThroughput = float64(rep.QueryRequests-rep.QueryErrors) / window.Seconds()
		rep.UpdatesPerSecond = float64(rep.UpdateBatches-rep.UpdateErrors) / window.Seconds()
		rep.RowsPerSecond = rep.UpdatesPerSecond * float64(cfg.BatchRows)
	}
	sort.Slice(queryLats, func(i, j int) bool { return queryLats[i] < queryLats[j] })
	if n := len(queryLats); n > 0 {
		rep.QueryP50 = queryLats[obs.QuantileIndex(n, 0.50)]
		rep.QueryP95 = queryLats[obs.QuantileIndex(n, 0.95)]
		rep.QueryP99 = queryLats[obs.QuantileIndex(n, 0.99)]
	}
	sort.Slice(updateLats, func(i, j int) bool { return updateLats[i] < updateLats[j] })
	if n := len(updateLats); n > 0 {
		rep.UpdateP50 = updateLats[obs.QuantileIndex(n, 0.50)]
		rep.UpdateP99 = updateLats[obs.QuantileIndex(n, 0.99)]
	}
	if haveStats {
		if after, ok := fetchDurability(client, url); ok {
			rep.WALRecords = after.walRecords - before.walRecords
			rep.Compactions = after.compactions - before.compactions
			rep.OverlayRows = after.overlayRows
		}
	}
	return rep, nil
}

// Format renders the report as an eh-bench table.
func (r *MixedReport) Format() string {
	t := &Table{
		ID:      "mixed",
		Title:   "mixed update/query workload against a live eh-server",
		Columns: []string{"value"},
	}
	t.Rows = []Row{
		{Label: "query requests", Cells: []Cell{Num(float64(r.QueryRequests))}},
		{Label: "query errors", Cells: []Cell{Num(float64(r.QueryErrors))}},
		{Label: "query throughput (req/s)", Cells: []Cell{Num(r.QueryThroughput)}},
		{Label: "query p50 latency", Cells: []Cell{Seconds(r.QueryP50)}},
		{Label: "query p95 latency", Cells: []Cell{Seconds(r.QueryP95)}},
		{Label: "query p99 latency", Cells: []Cell{Seconds(r.QueryP99)}},
		{Label: "retries (shed resends)", Cells: []Cell{Num(float64(r.Retries))}},
		{Label: "update batches", Cells: []Cell{Num(float64(r.UpdateBatches))}},
		{Label: "update errors", Cells: []Cell{Num(float64(r.UpdateErrors))}},
		{Label: "updates/s (batches)", Cells: []Cell{Num(r.UpdatesPerSecond)}},
		{Label: "update rows/s", Cells: []Cell{Num(r.RowsPerSecond)}},
		{Label: "update p50 latency", Cells: []Cell{Seconds(r.UpdateP50)}},
		{Label: "update p99 latency", Cells: []Cell{Seconds(r.UpdateP99)}},
		{Label: "wal records", Cells: []Cell{Num(float64(r.WALRecords))}},
		{Label: "compactions", Cells: []Cell{Num(float64(r.Compactions))}},
		{Label: "overlay rows (end)", Cells: []Cell{Num(float64(r.OverlayRows))}},
	}
	return t.Format()
}
