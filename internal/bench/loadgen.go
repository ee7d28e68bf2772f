package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emptyheaded/internal/obs"
)

// LoadConfig drives the server load generator: Concurrency workers replay
// Queries round-robin against the /query endpoint at URL for Duration.
type LoadConfig struct {
	// URL is the server base URL (e.g. http://localhost:8080).
	URL string
	// Queries is the replayed mix; workers rotate through it.
	Queries []string
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Duration is the measurement window (default 5s).
	Duration time.Duration
	// Timeout bounds one request (default 30s).
	Timeout time.Duration
	// Limit caps tuples per response, keeping payloads comparable across
	// queries (default 10).
	Limit int
	// NoResultCache sets no_cache on every request so the run measures
	// execution rather than result-cache lookups.
	NoResultCache bool
	// Retry configures shed-response (503/429) retries; the zero value
	// takes the policy defaults (3 attempts, 50ms jittered backoff).
	Retry RetryPolicy
}

// LoadReport aggregates a load-generation run. Throughput and the
// latency percentiles cover successful (200) responses only — fast 503
// rejections would otherwise make an overloaded server look faster.
type LoadReport struct {
	Requests   int64 // total requests sent
	Errors     int64 // transport failures + non-200 responses
	Elapsed    time.Duration
	Throughput float64 // successful requests/second
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	Max        time.Duration
	// Retries counts backoff-and-resend cycles taken on shed (503/429)
	// responses under the retry policy.
	Retries int64
	// Cache/admission deltas over the run, read from /stats (zero when
	// the server's stats endpoint is unavailable).
	PlanHits   int64
	ResultHits int64
	Rejected   int64
}

// DefaultQueryMix is the standard served workload: triangle count (cyclic,
// plan-cache friendly), two-path listing (acyclic, larger output), and a
// degree aggregation (single-atom group-by) over the edge relation.
func DefaultQueryMix(rel string) []string {
	return []string{
		fmt.Sprintf(`TC(;w:long) :- %s(x,y),%s(y,z),%s(x,z); w=<<COUNT(*)>>.`, rel, rel, rel),
		fmt.Sprintf(`P(x,z) :- %s(x,y),%s(y,z).`, rel, rel),
		fmt.Sprintf(`Deg(x;w:long) :- %s(x,y); w=<<COUNT(y)>>.`, rel),
	}
}

type statsCounters struct {
	planHits   int64
	resultHits int64
	rejected   int64
}

func fetchStats(client *http.Client, url string) (statsCounters, bool) {
	var out statsCounters
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return out, false
	}
	defer resp.Body.Close()
	var payload struct {
		PlanCache struct {
			Hits int64 `json:"hits"`
		} `json:"plan_cache"`
		ResultCache struct {
			Hits int64 `json:"hits"`
		} `json:"result_cache"`
		Admission struct {
			RejectedFull    int64 `json:"rejected_full"`
			RejectedTimeout int64 `json:"rejected_timeout"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return out, false
	}
	out.planHits = payload.PlanCache.Hits
	out.resultHits = payload.ResultCache.Hits
	out.rejected = payload.Admission.RejectedFull + payload.Admission.RejectedTimeout
	return out, true
}

// RunLoad replays the query mix against a live eh-server and reports
// throughput and latency percentiles.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("bench: load generator needs a server URL")
	}
	if len(cfg.Queries) == 0 {
		cfg.Queries = DefaultQueryMix("Edge")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
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
	url := strings.TrimSuffix(cfg.URL, "/")
	client := &http.Client{
		Timeout: cfg.Timeout,
		// Default MaxIdleConnsPerHost (2) would churn TCP connections at
		// any real concurrency, measuring handshakes instead of queries.
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency + 2,
			MaxIdleConnsPerHost: cfg.Concurrency + 2,
		},
	}

	rc := NewRetryClient(client, cfg.Retry)
	before, haveStats := fetchStats(client, url)

	type reqBody struct {
		Query   string `json:"query"`
		Limit   int    `json:"limit"`
		NoCache bool   `json:"no_cache,omitempty"`
	}
	bodies := make([][]byte, len(cfg.Queries))
	for i, q := range cfg.Queries {
		b, err := json.Marshal(reqBody{Query: q, Limit: cfg.Limit, NoCache: cfg.NoResultCache})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	var (
		wg       sync.WaitGroup
		requests atomic.Int64
		errs     atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			for i := w; time.Now().Before(deadline); i++ {
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				resp, err := rc.Post(url+"/query", "application/json", body)
				d := time.Since(t0)
				requests.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				ok := resp.StatusCode == http.StatusOK
				// Drain before closing so the connection is reused.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if !ok {
					errs.Add(1)
					continue
				}
				local = append(local, d)
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Requests: requests.Load(),
		Errors:   errs.Load(),
		Retries:  rc.Retries(),
		Elapsed:  elapsed,
	}
	// Workers stop issuing at the deadline but drain in-flight requests
	// (up to Timeout) afterwards; the issuing window, not the drain, is
	// the throughput denominator.
	window := cfg.Duration
	if elapsed < window {
		window = elapsed
	}
	if window > 0 {
		rep.Throughput = float64(rep.Requests-rep.Errors) / window.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		rep.P50 = lats[obs.QuantileIndex(n, 0.50)]
		rep.P95 = lats[obs.QuantileIndex(n, 0.95)]
		rep.P99 = lats[obs.QuantileIndex(n, 0.99)]
		rep.Max = lats[n-1]
	}
	if haveStats {
		if after, ok := fetchStats(client, url); ok {
			rep.PlanHits = after.planHits - before.planHits
			rep.ResultHits = after.resultHits - before.resultHits
			rep.Rejected = after.rejected - before.rejected
		}
	}
	return rep, nil
}

// Format renders the report as an eh-bench table.
func (r *LoadReport) Format() string {
	t := &Table{
		ID:      "load",
		Title:   "query mix replay against a live eh-server",
		Columns: []string{"value"},
	}
	t.Rows = []Row{
		{Label: "requests", Cells: []Cell{Num(float64(r.Requests))}},
		{Label: "errors", Cells: []Cell{Num(float64(r.Errors))}},
		{Label: "retries (shed resends)", Cells: []Cell{Num(float64(r.Retries))}},
		{Label: "throughput (req/s)", Cells: []Cell{Num(r.Throughput)}},
		{Label: "p50 latency", Cells: []Cell{Seconds(r.P50)}},
		{Label: "p95 latency", Cells: []Cell{Seconds(r.P95)}},
		{Label: "p99 latency", Cells: []Cell{Seconds(r.P99)}},
		{Label: "max latency", Cells: []Cell{Seconds(r.Max)}},
		{Label: "plan-cache hits", Cells: []Cell{Num(float64(r.PlanHits))}},
		{Label: "result-cache hits", Cells: []Cell{Num(float64(r.ResultHits))}},
		{Label: "rejected (503)", Cells: []Cell{Num(float64(r.Rejected))}},
	}
	return t.Format()
}
