// Package datasets provides deterministic synthetic stand-ins for the six
// graphs of Table 3. The real datasets (SNAP/KONECT downloads) are not
// available offline, so each is replaced by a Chung-Lu power-law graph
// whose parameters are chosen to preserve the property the experiments
// depend on — the *relative density-skew ordering* (Google+ ≫ Higgs ≫
// LiveJournal ≈ Orkut ≈ Patents) and relative scale — at roughly 100×
// reduced node count so benchmarks run on one machine.
package datasets

import (
	"sync"

	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/set"
)

// Preset describes one synthetic dataset.
type Preset struct {
	Name string
	// Nodes and UndirEdges are the generation targets.
	Nodes      int
	UndirEdges int
	// Exponent is the power-law degree exponent; smaller = more skew.
	Exponent float64
	Seed     int64
	// Description mirrors Table 3.
	Description string
	// PaperNodesM / PaperEdgesM record the original sizes (millions).
	PaperNodesM float64
	PaperEdgesM float64
	// PaperSkew is the density skew reported in Table 3.
	PaperSkew float64
}

// Presets is the Table 3 inventory. Exponents are tuned so Google+ has by
// far the largest density skew, Higgs a moderate one, and the remaining
// graphs low skew, matching the ordering in Table 3.
// Presets is the Table 3 inventory. Google+ is the dense, high-skew graph
// (the paper's set-level optimizer picks bitsets for 41% of its
// neighborhoods); Patents is the very sparse low-skew one. The parameters
// below reproduce that neighborhood-density ordering, which is the
// property Tables 4, 5, 8, 10 and 11 depend on.
var Presets = []Preset{
	{Name: "gplus", Nodes: 8000, UndirEdges: 160000, Exponent: 1.8, Seed: 101,
		Description: "User network (Google+)", PaperNodesM: 0.11, PaperEdgesM: 12.2, PaperSkew: 1.17},
	{Name: "higgs", Nodes: 40000, UndirEdges: 125000, Exponent: 2.1, Seed: 102,
		Description: "Tweets about Higgs Boson", PaperNodesM: 0.4, PaperEdgesM: 12.5, PaperSkew: 0.23},
	{Name: "livejournal", Nodes: 48000, UndirEdges: 430000, Exponent: 2.6, Seed: 103,
		Description: "User network (LiveJournal)", PaperNodesM: 4.8, PaperEdgesM: 43.4, PaperSkew: 0.09},
	{Name: "orkut", Nodes: 31000, UndirEdges: 560000, Exponent: 2.7, Seed: 104,
		Description: "User network (Orkut)", PaperNodesM: 3.1, PaperEdgesM: 117.2, PaperSkew: 0.08},
	{Name: "patents", Nodes: 38000, UndirEdges: 80000, Exponent: 3.2, Seed: 105,
		Description: "Citation network (Patents)", PaperNodesM: 3.8, PaperEdgesM: 16.5, PaperSkew: 0.09},
	{Name: "twitter", Nodes: 100000, UndirEdges: 1200000, Exponent: 2.0, Seed: 106,
		Description: "Follower network (Twitter)", PaperNodesM: 41.7, PaperEdgesM: 757.8, PaperSkew: 0.12},
}

// Small is the five-dataset subset used by the micro-benchmark tables
// (Tables 4, 8-11 exclude Twitter).
var Small = []string{"gplus", "higgs", "livejournal", "orkut", "patents"}

var (
	mu    sync.Mutex
	cache = map[string]*graph.Graph{}
)

// ByName returns the preset with the given name.
func ByName(name string) (Preset, bool) {
	for _, p := range Presets {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}

// Load generates (or returns the cached) undirected graph for a preset
// name. Generation is deterministic per preset.
func Load(name string) *graph.Graph {
	mu.Lock()
	defer mu.Unlock()
	if g, ok := cache[name]; ok {
		return g
	}
	p, ok := ByName(name)
	if !ok {
		panic("datasets: unknown dataset " + name)
	}
	g := gen.PowerLaw(p.Nodes, p.UndirEdges, p.Exponent, p.Seed)
	cache[name] = g
	return g
}

// LoadPruned returns the degree-ordered, src>dst pruned version used by
// the symmetric pattern benchmarks (§5.2.1).
func LoadPruned(name string) *graph.Graph {
	mu.Lock()
	if g, ok := cache[name+"/pruned"]; ok {
		mu.Unlock()
		return g
	}
	mu.Unlock()
	g := Load(name).Reorder(graph.OrderDegree, 0).Prune()
	mu.Lock()
	cache[name+"/pruned"] = g
	mu.Unlock()
	return g
}

// Names returns all preset names in Table 3 order.
func Names() []string {
	out := make([]string, len(Presets))
	for i, p := range Presets {
		out[i] = p.Name
	}
	return out
}

// BitsetFraction measures the fraction of non-trivial neighborhood sets
// for which the set-level optimizer (§4.4) would choose the bitset layout.
// This is the operative notion of "density skew" in the experiments: the
// paper reports 41% for Google+ (§5.2.1) versus nearly none for Patents.
func BitsetFraction(g *graph.Graph) float64 {
	total, dense := 0, 0
	for _, ns := range g.Adj {
		if len(ns) == 0 {
			continue
		}
		total++
		if set.ChooseLayout(ns) == set.Bitset {
			dense++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dense) / float64(total)
}
