// Command eh-query runs a datalog query against an edge-list graph, or
// against a live eh-server.
//
// Usage:
//
//	eh-query -graph edges.txt [-directed] [-explain] [-analyze] [-limit 20] 'TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.'
//	eh-query -serve-url http://localhost:8080 [-limit 20] 'TC(;w:long) :- ...'
//
// The graph is registered as the relation Edge (undirected by default:
// each edge is loaded in both directions). -explain prints the physical
// plan without running; -analyze runs the query with live kernel
// counters and prints the plan annotated with actuals (EXPLAIN ANALYZE)
// — including the per-level kernel routes (layout pair + algorithm) the
// adaptive set layouts dispatched to — before the results.
//
// With -serve-url the query is POSTed to the server's /query endpoint
// instead of executing locally. Shed responses (503 overload or
// degraded, 429) are retried with jittered exponential backoff honoring
// the server's Retry-After hint — see docs/RESILIENCE.md; -serve-retries
// bounds the attempts.
//
// With -top (and -serve-url, no query argument) the server's workload
// profile is fetched from /debug/workload and rendered as a table of
// the hottest query fingerprints among the server's retained request
// records — count, latency quantiles, cache-hit rate, rows — sorted by
// -sort (count|latency|rows), -n rows deep.
//
// With -why "T(1,2,3)" (local -graph mode) the query's output tuple is
// probed for provenance: is it derivable, through which contributing
// rows of each body relation (classified base vs streamed overlay), and
// against what lineage — see docs/PROVENANCE.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"emptyheaded"
	"emptyheaded/internal/core"
)

func main() {
	graphPath := flag.String("graph", "", "edge list file (src dst per line)")
	directed := flag.Bool("directed", false, "load edges as directed")
	explain := flag.Bool("explain", false, "print the physical plan instead of running")
	analyze := flag.Bool("analyze", false, "run with live kernel counters and print the plan annotated with actuals")
	limit := flag.Int("limit", 20, "max result tuples to print")
	serveURL := flag.String("serve-url", "", "POST the query to this eh-server base URL instead of executing locally")
	serveRetries := flag.Int("serve-retries", 3, "total attempts per shed (503/429) response, first included; 1 disables retries")
	top := flag.Bool("top", false, "render the server's workload profile (requires -serve-url, no query argument)")
	topSort := flag.String("sort", "count", "workload sort key for -top: count, latency or rows")
	topN := flag.Int("n", 20, "fingerprints shown by -top")
	why := flag.String("why", "", `probe why this output tuple (e.g. "T(1,2,3)") is in the result: per-atom contributing rows, base vs overlay, with lineage (requires -graph)`)
	flag.Parse()

	if *top {
		if *serveURL == "" || flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: eh-query -serve-url http://host:8080 -top [-sort count|latency|rows] [-n 20]")
			os.Exit(2)
		}
		rc := NewRetryClient(&http.Client{Timeout: 30 * time.Second}, RetryPolicy{MaxAttempts: *serveRetries})
		if err := workloadTop(os.Stdout, rc, *serveURL, *topSort, *topN); err != nil {
			fatal(err)
		}
		return
	}

	if (*graphPath == "" && *serveURL == "") || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: eh-query -graph edges.txt [flags] '<datalog query>'")
		fmt.Fprintln(os.Stderr, "       eh-query -serve-url http://host:8080 [flags] '<datalog query>'")
		fmt.Fprintln(os.Stderr, "       eh-query -serve-url http://host:8080 -top")
		os.Exit(2)
	}
	query := flag.Arg(0)

	if *serveURL != "" {
		if *why != "" {
			fatal(fmt.Errorf("-why probes locally; it cannot be combined with -serve-url"))
		}
		remote(*serveURL, query, *limit, *serveRetries, *analyze)
		return
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	eng := emptyheaded.New()
	if err := eng.LoadEdgeList("Edge", f, !*directed); err != nil {
		fatal(err)
	}
	if *explain {
		plan, err := eng.Explain(query)
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
		return
	}
	if *why != "" {
		rep, err := eng.Why(query, *why)
		if err != nil {
			fatal(err)
		}
		printWhy(rep)
		return
	}
	t0 := time.Now()
	var res *emptyheaded.Result
	if *analyze {
		var annotated string
		res, annotated, err = eng.RunAnalyze(query)
		if err != nil {
			fatal(err)
		}
		if annotated == "" {
			fmt.Println("(no pinned plan: multi-rule or recursive program, counters unavailable)")
		} else {
			fmt.Print(annotated)
			fmt.Println()
		}
	} else {
		res, err = eng.Run(query)
		if err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(t0)
	if res.Trie.Arity == 0 {
		fmt.Printf("%s = %g\n", res.Name, res.Scalar())
	} else {
		fmt.Printf("%s: %d tuples\n", res.Name, res.Cardinality())
		n := 0
		res.ForEach(func(tp []uint32, ann float64) {
			if n >= *limit {
				return
			}
			n++
			fmt.Printf("  %v", tp)
			if res.Trie.Annotated {
				fmt.Printf(" : %g", ann)
			}
			fmt.Println()
		})
		if res.Cardinality() > *limit {
			fmt.Printf("  ... (%d more)\n", res.Cardinality()-*limit)
		}
	}
	fmt.Printf("elapsed: %s\n", elapsed)
}

// remote posts the query to a live eh-server with the shed-retry policy
// applied and renders the JSON response in the local output format.
func remote(baseURL, query string, limit, retries int, analyze bool) {
	body, err := json.Marshal(struct {
		Query   string `json:"query"`
		Limit   int    `json:"limit,omitempty"`
		Analyze bool   `json:"analyze,omitempty"`
	}{Query: query, Limit: limit, Analyze: analyze})
	if err != nil {
		fatal(err)
	}
	rc := NewRetryClient(&http.Client{Timeout: 60 * time.Second},
		RetryPolicy{MaxAttempts: retries})
	t0 := time.Now()
	resp, err := rc.Post(baseURL+"/query", "application/json", body)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(t0)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(raw)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		if n := rc.Retries(); n > 0 {
			msg = fmt.Sprintf("%s (after %d retries)", msg, n)
		}
		fatal(fmt.Errorf("server: %d: %s", resp.StatusCode, msg))
	}
	var qr struct {
		Name        string    `json:"name"`
		Cardinality int       `json:"cardinality"`
		Scalar      *float64  `json:"scalar"`
		Tuples      [][]int64 `json:"tuples"`
		Anns        []float64 `json:"anns"`
		Truncated   bool      `json:"truncated"`
		Analyze     *struct {
			Plan string `json:"plan"`
		} `json:"analyze"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		fatal(fmt.Errorf("decode response: %w", err))
	}
	if qr.Analyze != nil && qr.Analyze.Plan != "" {
		fmt.Print(qr.Analyze.Plan)
		fmt.Println()
	}
	if qr.Scalar != nil {
		fmt.Printf("%s = %g\n", qr.Name, *qr.Scalar)
	} else {
		fmt.Printf("%s: %d tuples%s\n", qr.Name, qr.Cardinality,
			map[bool]string{true: " (truncated)", false: ""}[qr.Truncated])
		for i, tp := range qr.Tuples {
			fmt.Printf("  %v", tp)
			if i < len(qr.Anns) {
				fmt.Printf(" : %g", qr.Anns[i])
			}
			fmt.Println()
		}
		if qr.Cardinality > len(qr.Tuples) {
			fmt.Printf("  ... (%d more)\n", qr.Cardinality-len(qr.Tuples))
		}
	}
	if n := rc.Retries(); n > 0 {
		fmt.Printf("retries: %d\n", n)
	}
	fmt.Printf("elapsed: %s\n", elapsed)
}

// workloadTop fetches /debug/workload through rc and writes the hottest
// fingerprints to w as a table.
func workloadTop(w io.Writer, rc *RetryClient, baseURL, sortKey string, n int) error {
	resp, err := rc.Get(fmt.Sprintf("%s/debug/workload?sort=%s&n=%d", baseURL, sortKey, n))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(raw)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return fmt.Errorf("server: %d: %s", resp.StatusCode, msg)
	}
	var wl struct {
		Totals struct {
			Fingerprints int   `json:"fingerprints"`
			Observed     int64 `json:"observed"`
			ResultHits   int64 `json:"result_hits"`
			PlanHits     int64 `json:"plan_hits"`
			Misses       int64 `json:"misses"`
			Errors       int64 `json:"errors"`
		} `json:"totals"`
		Fingerprints []struct {
			Fingerprint string           `json:"fingerprint"`
			Query       string           `json:"query"`
			Count       int64            `json:"count"`
			Errors      int64            `json:"errors"`
			Routes      map[string]int64 `json:"routes"`
			AvgUS       float64          `json:"avg_us"`
			P50US       float64          `json:"p50_us"`
			P99US       float64          `json:"p99_us"`
			Rows        int64            `json:"rows"`
		} `json:"fingerprints"`
	}
	if err := json.Unmarshal(raw, &wl); err != nil {
		return fmt.Errorf("decode /debug/workload: %w", err)
	}
	t := wl.Totals
	fmt.Fprintf(w, "workload: %d fingerprints, %d queries observed (%d result hits, %d plan hits, %d misses, %d errors)\n",
		t.Fingerprints, t.Observed, t.ResultHits, t.PlanHits, t.Misses, t.Errors)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "COUNT\tP50\tP99\tCACHE%\tROWS\tERR\tQUERY")
	for _, fp := range wl.Fingerprints {
		hitPct := 0.0
		if fp.Count > 0 {
			// "Cache hit" for the table means the query skipped execution
			// entirely (result-cache route).
			hitPct = 100 * float64(fp.Routes["result_hit"]) / float64(fp.Count)
		}
		q := fp.Query
		if q == "" {
			q = fp.Fingerprint
		}
		if len(q) > 72 {
			q = q[:69] + "..."
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f%%\t%d\t%d\t%s\n",
			fp.Count, usDur(fp.P50US), usDur(fp.P99US), hitPct, fp.Rows, fp.Errors, q)
	}
	return tw.Flush()
}

// printWhy renders a per-tuple provenance probe: derivability, each
// body atom's contributing rows (base vs overlay), and the lineage of
// the relations involved.
func printWhy(rep *core.WhyReport) {
	if rep.Err != "" {
		fmt.Printf("%s: probe error: %s\n", rep.Tuple, rep.Err)
	} else if rep.Derivable {
		plural := ""
		if rep.Derivations != 1 {
			plural = "s"
		}
		fmt.Printf("%s: derivable (%d derivation%s)\n", rep.Tuple, rep.Derivations, plural)
	} else {
		fmt.Printf("%s: NOT derivable\n", rep.Tuple)
	}
	for _, a := range rep.Atoms {
		if a.Err != "" {
			fmt.Printf("  %s: %s\n", a.Pattern, a.Err)
			continue
		}
		suffix := ""
		if a.OverlayRows > 0 {
			suffix = fmt.Sprintf(", %d from overlay", a.OverlayRows)
		}
		fmt.Printf("  %s: %d matching row(s)%s\n", a.Pattern, a.Total, suffix)
		for _, row := range a.Rows {
			ann := ""
			if row.Ann != 0 {
				ann = fmt.Sprintf(" : %g", row.Ann)
			}
			fmt.Printf("    %v%s  [%s]\n", row.Tuple, ann, row.Source)
		}
		if a.Truncated {
			fmt.Printf("    ... (%d more)\n", a.Total-len(a.Rows))
		}
	}
	fmt.Println("lineage:")
	for _, rl := range rep.Relations {
		wm := "epoch-only"
		if rl.WALSeq > 0 {
			wm = fmt.Sprintf("wal_seq=%d", rl.WALSeq)
		}
		fmt.Printf("  %-20s epoch=%d overlay_gen=%d %s\n", rl.Name, rl.Epoch, rl.OverlayGen, wm)
	}
}

// usDur renders microseconds as a compact duration.
func usDur(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eh-query:", err)
	os.Exit(1)
}
