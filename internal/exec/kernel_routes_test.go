package exec

import (
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/set"
)

const (
	qKernelTriangle = `TC(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`
	qKernel4Clique  = `K4(;w:long) :- R(x,y),S(y,z),T(x,z),U(x,w_),V(y,w_),Q(z,w_); w=<<COUNT(*)>>.`
)

func prepareQOpts(t testing.TB, db *DB, query string, opts Options) *Prepared {
	prog, err := datalog.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// routeCount sums one kernel route's dispatches across a run's levels.
func routeCount(st *ExecStats, r set.Route) int64 {
	var n int64
	for _, b := range st.Bags {
		for i := range b.Levels {
			n += b.Levels[i].Kernel.Counts[r]
		}
	}
	return n
}

// wordParallelDispatches sums the word-parallel kernel dispatches
// (bitset∩bitset and composite∩composite routes) across a run's levels.
func wordParallelDispatches(st *ExecStats) int64 {
	var n int64
	for _, b := range st.Bags {
		for i := range b.Levels {
			n += b.Levels[i].Kernel.WordParallel()
		}
	}
	return n
}

// TestAdaptiveKernelsMatchScalarMerge: on a skewed power-law graph dense
// enough (avg degree 40) that hub adjacency sets land in the bitset
// band, the adaptive layouts must count what the
// scalar baseline counts (the paper's "-RA" ablation: every set a sorted
// uint array, every intersection a two-pointer merge) and must get there
// through the dense routes. How much faster that is is the benchmark's
// exec.vs_lowlevel_ratio and set.*_ns_per_* probes, not a test's business.
func TestAdaptiveKernelsMatchScalarMerge(t *testing.T) {
	for _, tc := range []struct {
		name, q string
		n, m    int
	}{
		{"triangle", qKernelTriangle, 3000, 60000},
		{"fourclique", qKernel4Clique, 1000, 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := dbWithGraph(gen.PowerLaw(tc.n, tc.m, 2.2, 5))
			scalarOpts := OptNoLayoutNoAlgo
			scalarOpts.Parallelism = 1
			scalar, err := prepareQOpts(t, db, tc.q, scalarOpts).RunWith(db.Fork(), RunParams{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := prepareQOpts(t, db, tc.q, Options{Parallelism: 1}).RunWith(db.Fork(), RunParams{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if adaptive.Scalar() != scalar.Scalar() || scalar.Scalar() == 0 {
				t.Fatalf("adaptive count %v, scalar-merge count %v", adaptive.Scalar(), scalar.Scalar())
			}
			if wp, swp := wordParallelDispatches(adaptive.Stats), wordParallelDispatches(scalar.Stats); wp == 0 || swp != 0 {
				t.Fatalf("word-parallel dispatches: adaptive %d (want > 0), scalar baseline %d (want 0)", wp, swp)
			}
			if n := routeCount(scalar.Stats, set.RouteUintMerge); n == 0 {
				t.Fatal("scalar baseline dispatched no uint-merge routes")
			}
		})
	}
}

// TestPinnedAlgoRoutes: pinning the uint∩uint algorithm through
// Options.Intersect changes the dispatch routes but never the result.
// Uint layouts keep every dispatch in the uint∩uint cell, where the algo
// choice is visible.
func TestPinnedAlgoRoutes(t *testing.T) {
	db := dbWithGraph(testGraph(400, 4000, 19))
	opts := OptNoLayout
	opts.Parallelism = 1
	base, err := prepareQOpts(t, db, qKernelTriangle, opts).RunWith(db.Fork(), RunParams{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	opts.Intersect = set.Config{Algo: set.AlgoMerge}
	pinned, err := prepareQOpts(t, db, qKernelTriangle, opts).RunWith(db.Fork(), RunParams{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Scalar() != pinned.Scalar() {
		t.Fatalf("pinned algo changed the result: %v vs %v", base.Scalar(), pinned.Scalar())
	}
	// Under AlgoMerge no uint∩uint pair may take shuffle or galloping.
	if n := routeCount(pinned.Stats, set.RouteUintShuffle) + routeCount(pinned.Stats, set.RouteUintGallop); n != 0 {
		t.Fatalf("pinned merge still dispatched %d adaptive uint routes", n)
	}
	if n := routeCount(pinned.Stats, set.RouteUintMerge); n == 0 {
		t.Fatal("pinned merge dispatched no uint-merge routes")
	}
}
