package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
)

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) gives them. Fewer than two values
// have no spread.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	v := slices.Clone(vals)
	slices.Sort(v)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(v)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultsFile) values(workload, name string, trace int) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// compare prints, for every end-to-end metric on every workload, how B's
// median stands against A's under the bound BENCHMARK.json fixes: ok,
// regression, or unresolved when the spread between runs of one side is
// wider than the bound. It also checks that failures did not rise and
// that the engine's own counts repeat exactly for equal seeds.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare A.json B.json")
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A %s  commit %s  %s  nproc %d  seed %d  repeat %d  %gs\n", args[0], a.Commit, a.Go, a.NProc, a.Seed, a.Repeat, a.Seconds)
	fmt.Printf("B %s  commit %s  %s  nproc %d  seed %d  repeat %d  %gs\n", args[1], b.Commit, b.Go, b.NProc, b.Seed, b.Repeat, b.Seconds)
	fmt.Printf("%-16s %-12s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spreadA", "spreadB", "bound", "verdict")
	bad := 0
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := a.values(w.Name, m.Name, 0), b.values(w.Name, m.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-12s missing\n", w.Name, m.Name)
				bad++
				continue
			}
			ma, mb := median(slices.Clone(va)), median(slices.Clone(vb))
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				bad++
			}
			fmt.Printf("%-16s %-12s %12.5g %12.5g %+8.3f %8.3f %8.3f %7.2f  %s\n", w.Name, m.Name, ma, mb, worse, sa, sb, m.Bound, verdict)
		}
		fa, fb := a.failedFrac(w.Name), b.failedFrac(w.Name)
		verdict := "ok"
		if fb > fa {
			verdict = "regression"
			bad++
		}
		fmt.Printf("%-16s %-12s %12.5g %12.5g %+8.3f %8s %8s %7.2f  %s\n", w.Name, "failed_frac", fa, fb, fb-fa, "-", "-", 0.0, verdict)
	}

	// Counts made by the engine must not depend on the run.
	for _, name := range []string{"exec.intersections", "exec.probes", "exec.emitted"} {
		for _, w := range man.Workloads {
			verdict := "identical"
			for _, ra := range a.Runs {
				for _, rb := range b.Runs {
					if ra.Trace == 1 && rb.Trace == 1 && ra.Workload == w.Name && rb.Workload == w.Name &&
						ra.Seed == rb.Seed && ra.Metrics[name].Value != rb.Metrics[name].Value {
						verdict = fmt.Sprintf("differs at seed %d", ra.Seed)
					}
				}
			}
			if verdict != "identical" {
				bad++
			}
			fmt.Printf("%-16s %-28s %s\n", w.Name, name, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ or are missing", bad)
	}
	return nil
}

// failedFrac is failed ÷ attempted over every run of a workload.
func (f *resultsFile) failedFrac(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return ratio(float64(failed), float64(attempted))
}
