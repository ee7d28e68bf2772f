package exec

import (
	"testing"

	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/trie"
)

// padded puts g behind three triangle-free copies of itself (u–v becomes
// 2u–2v+1, so every edge joins an even and an odd id): seven times the
// nodes and four times the edges to probe through, the same triangles
// and 4-cliques to find, and the same first rows for a limited listing.
func padded(g *graph.Graph) *graph.Graph {
	var edges [][2]uint32
	n, off := uint32(g.N), uint32(0)
	for range 3 {
		for u, ns := range g.Adj {
			for _, v := range ns {
				edges = append(edges, [2]uint32{off + 2*uint32(u), off + 2*v + 1})
			}
		}
		off += 2 * n
	}
	for u, ns := range g.Adj {
		for _, v := range ns {
			edges = append(edges, [2]uint32{off + uint32(u), off + v})
		}
	}
	return graph.FromEdges(int(off+n), edges, true)
}

// The loop nest allocates per run and per output row, never per probe or
// per intersection: a plan clone, the cursor templates, one state per
// worker, scratch buffers that grow a few times to the largest
// intersection, the first level's blocks on the pool. The padded
// graph makes several times the probes for the same output, so anything
// that escapes to the heap inside the nest — the trap of passing *set.Set
// operands or the scratch result through an interface (docs/KERNELS.md,
// "Calling convention") — shows as thousands of extra allocations on it.
func TestLoopNestAllocationsIndependentOfGraphSize(t *testing.T) {
	// allocSlack covers a few extra doublings of the scratch buffers and
	// the first level's candidate set, built once per bag in its own
	// layout (a composite set has a block per 256 ids).
	const allocSlack = 32
	queries := []struct {
		name, text string
		limit      int
	}{
		{"triangle", qKernelTriangle, 0},
		{"k4", qKernel4Clique, 0},
		{"listing", `L(x,y,z) :- R(x,y),S(y,z),T(x,z).`, 50},
		// A PageRank round's sum, so that both graphs give one row.
		{"pagerank_round", `PR(;y:float) :- Edge(x,z),PageRank(z),InvDeg(z); y=<<SUM(z)>>.`, 0},
	}
	layouts := []struct {
		name string
		f    *trie.Policy
	}{
		{"uint", trie.UintLayout},
		{"bitset", trie.BitsetLayout},
		{"composite", trie.CompositeLayout},
	}
	g := gen.ErdosRenyi(150, 900, 7)
	pg := padded(g)
	small, large := dbWithGraph(g), dbWithGraph(pg)
	addPageRankInputs(small, g)
	addPageRankInputs(large, pg)
	for _, l := range layouts {
		for _, q := range queries {
			t.Run(l.name+"/"+q.name, func(t *testing.T) {
				allocs := func(db *DB, par int) float64 {
					pr := prepareQOpts(t, db, q.text, Options{Layout: l.f, Parallelism: par})
					fork := db.Fork()
					run := func() {
						if _, err := pr.RunWith(fork, RunParams{Limit: q.limit}); err != nil {
							t.Fatal(err)
						}
					}
					run() // builds the layout's indexes
					return testing.AllocsPerRun(5, run)
				}
				// Parallelism 2 runs the nest on the worker pool, so a
				// per-probe or per-block escape inside a pool worker shows too.
				// A limited listing runs at 1 only: on the pool, the rows a
				// second worker emits before the limit's latch stops it depend
				// on the schedule, and each can double a column.
				pars := []int{1, 2}
				if q.limit > 0 {
					pars = pars[:1]
				}
				for _, par := range pars {
					s, lg := allocs(small, par), allocs(large, par)
					if lg > s+allocSlack {
						t.Errorf("parallelism %d: allocations per run grow with the graph: %.0f on the graph, %.0f on the padded graph", par, s, lg)
					}
				}
			})
		}
	}
}
