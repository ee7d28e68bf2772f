// Command benchmark is the engine's one benchmark: five workloads, the
// end-to-end metrics a user sees, and a traced pass that times the calls
// into each layer. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line of output is the result as JSON
//	benchmark run --seed N --out FILE [--repeat R]            every workload, untraced then traced, each in a fresh process
//	benchmark compare A.json B.json                           B against A under the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	// A caller that gives up sends SIGTERM. Exiting runs no defers, so the
	// scratch directory goes here; child processes die with this one
	// (Pdeathsig).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		if root, err := os.Getwd(); err == nil {
			os.RemoveAll(scratchDir(root))
		}
		os.Exit(130)
	}()

	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = runAll(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compare(os.Args[2:])
	default:
		err = runOneMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOneMain is the contract's command line: one workload, one run.
func runOneMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 12, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	fs.BoolVar(&cfg.CorruptReference, "corrupt-reference", false, "self-test: falsify the reference answers; the run must fail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.Trace = trace != 0
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	cfg.Root = root
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	printResult(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		// The result line is out; the exit code tells a caller without a
		// JSON parser that answers were wrong.
		os.Exit(2)
	}
	return nil
}

// printResult prints notes and every metric as "name value unit".
func printResult(res *runResult) {
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if s, ok := res.Samples[n]; ok {
			fmt.Printf("%s %.6g %s (n=%d)\n", n, m.Value, m.Unit, s)
		} else {
			fmt.Printf("%s %.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
}
