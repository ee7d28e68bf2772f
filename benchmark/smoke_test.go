package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildServer puts eh-server where runServe looks for it under root.
func buildServer(t *testing.T, root string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", serverBinName), "./cmd/eh-server")
	cmd.Dir = ".." // the emptyheaded module
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building eh-server: %v\n%s", err, out)
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny graphs
// with short windows. It checks every answer and that each metric
// BENCHMARK.json names comes out with its unit; it enforces no bound.
func TestSmoke(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(man.Workloads), len(workloadDefs))
	}
	root := t.TempDir()
	buildServer(t, root)
	for _, w := range man.Workloads {
		for trace, want := range [][]manifestMetric{man.EndToEnd, man.PerLayer} {
			cfg := runConfig{Workload: w.Name, Seed: 1, Seconds: 0.4, Trace: trace == 1, Tiny: true, Root: root}
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: attempted %d, failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.Notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace_"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestCorruptReference shows that the answer checks can fail: with the
// reference falsified, an embedded and a serve workload report failures.
func TestCorruptReference(t *testing.T) {
	root := t.TempDir()
	buildServer(t, root)
	for _, w := range []string{"analytics", "serve_mixed"} {
		res, err := runOne(runConfig{Workload: w, Seed: 1, Seconds: 0.3, CorruptReference: true, Tiny: true, Root: root})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: falsified reference, yet %d of %d failed", w, res.Failed, res.Attempted)
		}
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got, want := quartileSpread([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
