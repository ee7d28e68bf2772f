// Command eh-gen emits synthetic graphs as edge lists: Chung-Lu power-law
// graphs (the dataset stand-ins of internal/datasets) or Erdős–Rényi graphs, or a
// named dataset preset from Table 3.
//
// Usage:
//
//	eh-gen -type powerlaw -n 10000 -m 100000 -exponent 2.3 -seed 1 > g.txt
//	eh-gen -preset gplus > gplus.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"emptyheaded/internal/datasets"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
)

func main() {
	typ := flag.String("type", "powerlaw", "graph model: powerlaw or er")
	n := flag.Int("n", 10000, "vertex count")
	m := flag.Int("m", 100000, "undirected edge count")
	exponent := flag.Float64("exponent", 2.3, "power-law degree exponent")
	seed := flag.Int64("seed", 1, "random seed")
	preset := flag.String("preset", "", "named dataset preset (gplus, higgs, livejournal, orkut, patents, twitter)")
	flag.Parse()

	var g *graph.Graph
	switch {
	case *preset != "":
		if _, ok := datasets.ByName(*preset); !ok {
			fmt.Fprintf(os.Stderr, "eh-gen: unknown preset %q\n", *preset)
			os.Exit(2)
		}
		g = datasets.Load(*preset)
	case *typ == "powerlaw":
		g = gen.PowerLaw(*n, *m, *exponent, *seed)
	case *typ == "er":
		g = gen.ErdosRenyi(*n, *m, *seed)
	default:
		fmt.Fprintf(os.Stderr, "eh-gen: unknown type %q\n", *typ)
		os.Exit(2)
	}
	if err := g.WriteEdgeList(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eh-gen:", err)
		os.Exit(1)
	}
}
