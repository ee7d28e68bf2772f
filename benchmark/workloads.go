package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// reserve is the matching every graph carries for updates: serve_mixed
// writes there, and so do the update probes of every traced run.
const reserve = 512

// Graph sizes are tuned so that one op of an embedded workload takes
// 25–60 ms on two cores: every window then holds at least 200 ops and
// ten samples lie beyond the reported 95th percentile.
var (
	// graphS is patents-like: nearly every neighbour set is a sorted
	// uint array.
	graphS = graphSpec{Name: "S", Nodes: 8000, Edges: 24000, Exponent: 3.0, Offset: 10, Reserve: reserve}
	// graphD is gplus-like: nearly every neighbour set is a bitset.
	graphD = graphSpec{Name: "D", Nodes: 2000, Edges: 30000, Exponent: 1.8, Offset: 10, Reserve: reserve}
	// graphM sits between the two.
	graphM = graphSpec{Name: "M", Nodes: 6000, Edges: 40000, Exponent: 2.3, Offset: 10, Reserve: reserve}
)

// workloadDef names one workload and says which driver runs it.
type workloadDef struct {
	Name      string
	Spec      graphSpec
	Serve     bool // clients of an eh-server child; otherwise in-process callers of Engine.Run
	Mixed     bool // serve only: one writer beside the readers, WAL on
	Analytics bool // embedded only: PageRank + SSSP instead of the pattern round
}

var workloadDefs = []workloadDef{
	{Name: "pattern_sparse", Spec: graphS},
	{Name: "pattern_dense", Spec: graphD},
	{Name: "analytics", Spec: graphM, Analytics: true},
	{Name: "serve_read", Spec: graphM, Serve: true},
	{Name: "serve_mixed", Spec: graphM, Serve: true, Mixed: true},
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// CorruptReference falsifies the reference answers: the run must then
	// report failures.
	CorruptReference bool
	// Tiny shrinks the graphs eightfold; only the smoke test sets it.
	Tiny bool
	// Root is the checkout root: the server binary is
	// Root/.bench_build/eh-server, traces go under Root/benchmark/out.
	Root string
	// Scratch holds the run's files (edge lists, WAL and snapshot
	// directories); runOne creates and removes it.
	Scratch string
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// warmup is long enough for caches to fill and every index to be built.
func (c runConfig) warmup() time.Duration { return min(c.window()/4, 3*time.Second) }

// runResult is what one run reports. The first four fields are the
// contract's result line; Samples says how many samples lie behind a
// percentile.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"-"`
	Notes     []string          `json:"-"`
}

// note keeps a line for the human reader; the first few are enough to
// see what went wrong.
func (r *runResult) note(s string) {
	if len(r.Notes) < 10 {
		r.Notes = append(r.Notes, s)
	}
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// inputs is everything generated from the seed for one run.
type inputs struct {
	def workloadDef
	g   *graphData
	ans *answers
}

func makeInputs(cfg runConfig) (*inputs, error) {
	def, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	spec := def.Spec
	if cfg.Tiny {
		spec.Nodes /= 8
		spec.Edges /= 8
		spec.Reserve /= 4
	}
	g := generate(spec, cfg.Seed)
	ans := referenceAnswers(g)
	if cfg.CorruptReference {
		ans.corrupt()
	}
	return &inputs{def: def, g: g, ans: ans}, nil
}

// scratchDir is where a run of this process keeps its files.
func scratchDir(root string) string {
	return filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
}

// runOne runs one workload once: tracing off gives the end-to-end
// metrics, tracing on the per-layer metrics.
func runOne(cfg runConfig) (*runResult, error) {
	in, err := makeInputs(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Scratch = scratchDir(cfg.Root)
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Scratch)
	res := &runResult{Metrics: map[string]metric{}, Samples: map[string]int{}}
	if in.def.Serve {
		err = runServe(cfg, in, res)
	} else {
		err = runEmbedded(cfg, in, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// windowStats is one measured closed-loop window.
type windowStats struct {
	Lat     []float64 // latency of each completed correct op, ms
	At      []float64 // when each of them completed, seconds into the window
	Failed  int
	Elapsed time.Duration
}

func (w *windowStats) add(lat time.Duration, windowStart time.Time) {
	w.Lat = append(w.Lat, ms(lat))
	w.At = append(w.At, time.Since(windowStart).Seconds())
}

func (w *windowStats) attempted() int { return len(w.Lat) + w.Failed }

// sliceSamples is the least number of samples in a slice of the window:
// twenty of them lie beyond the slice's 95th percentile.
const sliceSamples = 400

// summary cuts the window into up to twelve equal slices of at least
// sliceSamples samples each, takes throughput, median and 95th
// percentile of every slice, and returns the medians over the slices: a
// stall that hits one slice does not move them. A window with fewer than
// 2×sliceSamples samples is one slice.
func (w *windowStats) summary() (perSec, p50, p95 float64) {
	k := min(max(len(w.Lat)/sliceSamples, 1), 12)
	width := w.Elapsed.Seconds() / float64(k)
	slices := make([][]float64, k)
	for i, at := range w.At {
		s := min(int(at/width), k-1)
		slices[s] = append(slices[s], w.Lat[i])
	}
	var rates, p50s, p95s []float64
	for _, lat := range slices {
		rates = append(rates, float64(len(lat))/width)
		p50s = append(p50s, quantile(lat, 0.50))
		p95s = append(p95s, quantile(lat, 0.95))
	}
	return median(rates), median(p50s), median(p95s)
}

// report writes the end-to-end latency and throughput metrics.
func (w *windowStats) report(res *runResult) {
	perSec, p50, p95 := w.summary()
	res.set("ops_per_s", perSec, "op/s")
	res.set("op_p50_ms", p50, "ms")
	res.set("op_p95_ms", p95, "ms")
	res.Samples["op_p50_ms"] = len(w.Lat)
	res.Samples["op_p95_ms"] = len(w.Lat)
}

var nproc = runtime.GOMAXPROCS(0)
