// Command eh-bench regenerates the tables and figures of the paper's
// evaluation (§5, Appendices A-B) on the synthetic dataset stand-ins.
// It prints the paper's tables and nothing else: anything compared
// across commits (throughput, latency, per-layer costs) is measured by
// `bash benchmark/run.sh` — see benchmark/README.md.
//
// Usage:
//
//	eh-bench [-exp table5,fig7] [-quick] [-reps 3]
//
// With no -exp flag every experiment runs in paper order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"emptyheaded/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(bench.IDs(), ",")+") or 'all'")
	quick := flag.Bool("quick", false, "smaller sweeps for fast runs")
	reps := flag.Int("reps", 3, "repetitions per measurement (fastest kept)")
	flag.Parse()

	cfg := bench.DefaultConfig
	cfg.Quick = *quick
	cfg.Reps = *reps

	var ids []string
	if *exp == "all" {
		ids = bench.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		f, ok := bench.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "eh-bench: unknown experiment %q (known: %s)\n",
				id, strings.Join(bench.IDs(), ","))
			os.Exit(2)
		}
		t := f(cfg)
		fmt.Println(t.Format())
	}
}
