package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The query pool of the serve workloads, and the check of each reply.

type queryKind int

const (
	kindGlobalTriangle queryKind = iota
	kindDegrees
	kindTwoPaths
	kindTwoHop
	kindAnchoredTriangle
)

// poolQuery is one of the pool's texts with its pre-encoded /query body.
type poolQuery struct {
	Kind   queryKind
	Anchor uint32
	Text   string
	Body   []byte
}

type queryRequest struct {
	Query   string `json:"query"`
	Limit   int    `json:"limit,omitempty"`
	Columns bool   `json:"columns,omitempty"`
	NoCache bool   `json:"no_cache,omitempty"`
}

// queryResponse is the part of the server's /query reply the checks and
// the per-layer metrics read.
type queryResponse struct {
	Cardinality  int       `json:"cardinality"`
	Scalar       *float64  `json:"scalar"`
	Tuples       [][]int64 `json:"tuples"`
	Columns      [][]int64 `json:"columns"`
	Anns         []float64 `json:"anns"`
	Truncated    bool      `json:"truncated"`
	ElapsedUS    int64     `json:"elapsed_us"`
	PlanCached   bool      `json:"plan_cached"`
	ResultCached bool      `json:"result_cached"`
}

func newPoolQuery(kind queryKind, anchor uint32, noCache bool) poolQuery {
	req := queryRequest{NoCache: noCache}
	switch kind {
	case kindGlobalTriangle:
		req.Query = textGlobalTriangle
	case kindDegrees:
		req.Query, req.Limit, req.Columns = textDegrees, listingLimit, true
	case kindTwoPaths:
		req.Query, req.Limit = textTwoPaths, listingLimit
	case kindTwoHop:
		req.Query, req.Limit = textTwoHop(anchor), twoHopLimit
	case kindAnchoredTriangle:
		req.Query = textAnchoredTriangle(anchor)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings, ints and bools always encodes
	}
	return poolQuery{Kind: kind, Anchor: anchor, Text: req.Query, Body: body}
}

// buildPool makes the 1024 texts in Zipf rank order: the three global
// queries lead (they stay cached under serve_read and are the expensive
// misses under serve_mixed), then a 2-hop listing and a triangle count
// per anchor node. Anchor k is the node a golden-ratio step further along
// the Chung-Lu nodes sorted by degree: the anchors cover all degrees
// evenly and the hot ranks get nodes of the same degree rank under every
// seed, so latencies do not depend on which node a seed made popular.
func buildPool(g *graphData) []poolQuery {
	pool := []poolQuery{ // the globalQueries
		newPoolQuery(kindGlobalTriangle, 0, false),
		newPoolQuery(kindDegrees, 0, false),
		newPoolQuery(kindTwoPaths, 0, false),
	}
	byDegree := make([]uint32, g.NBase)
	for v := range byDegree {
		byDegree[v] = uint32(v)
	}
	sort.SliceStable(byDegree, func(i, j int) bool { return len(g.Adj[byDegree[i]]) > len(g.Adj[byDegree[j]]) })
	const golden = 0.6180339887498949
	for k := 1; len(pool) < poolSize; k++ {
		_, frac := math.Modf(float64(k) * golden)
		anchor := byDegree[int(frac*float64(g.NBase))]
		pool = append(pool, newPoolQuery(kindTwoHop, anchor, false), newPoolQuery(kindAnchoredTriangle, anchor, false))
	}
	return pool[:poolSize]
}

// checkResponse verifies one reply against the reference answers.
func (in *inputs) checkResponse(q *poolQuery, resp *queryResponse) error {
	g, a := in.g, in.ans
	wantScalar := func(want int64) error {
		if resp.Scalar == nil {
			return errors.New("no scalar in reply")
		}
		if *resp.Scalar != float64(want) {
			return fmt.Errorf("got %v, want %d", *resp.Scalar, want)
		}
		return nil
	}
	switch q.Kind {
	case kindGlobalTriangle:
		return wantScalar(6 * a.Triangles)
	case kindAnchoredTriangle:
		return wantScalar(2 * a.PerNode[q.Anchor])
	case kindTwoHop:
		want := g.twoHopCount(q.Anchor)
		if err := checkListing(resp, len(resp.Tuples), want, twoHopLimit); err != nil {
			return err
		}
		for _, t := range resp.Tuples {
			if len(t) != 2 || !g.hasEdge(q.Anchor, uint32(t[0])) || !g.hasEdge(uint32(t[0]), uint32(t[1])) {
				return fmt.Errorf("%v is not a 2-hop from %d", t, q.Anchor)
			}
		}
	case kindDegrees:
		if len(resp.Columns) != 1 || len(resp.Anns) != len(resp.Columns[0]) {
			return errors.New("want one column with annotations")
		}
		if err := checkListing(resp, len(resp.Anns), g.N, listingLimit); err != nil {
			return err
		}
		for i, x := range resp.Columns[0] {
			d := resp.Anns[i]
			switch {
			case x < 0 || x >= int64(g.N):
				return fmt.Errorf("unknown node %d", x)
			case x < int64(g.NBase):
				if d != float64(len(g.Adj[x])) {
					return fmt.Errorf("degree of %d: got %v, want %d", x, d, len(g.Adj[x]))
				}
			case d < 1 || d > float64(g.Spec.Reserve):
				// Reserve nodes gain and lose edges under serve_mixed.
				return fmt.Errorf("degree of reserve node %d: got %v", x, d)
			}
		}
	case kindTwoPaths:
		if len(resp.Tuples) == 0 || len(resp.Tuples) > listingLimit {
			return fmt.Errorf("got %d tuples, want 1..%d", len(resp.Tuples), listingLimit)
		}
		for _, t := range resp.Tuples {
			if len(t) != 2 {
				return fmt.Errorf("tuple %v: want 2 values", t)
			}
			x, z := uint32(t[0]), uint32(t[1])
			bothReserve := int(x) >= g.NBase && int(z) >= g.NBase && int(x) < g.N && int(z) < g.N
			if !bothReserve && !g.sharesNeighbour(x, z) {
				return fmt.Errorf("no 2-path %d–%d", x, z)
			}
		}
	}
	return nil
}

// checkListing checks a listing's size: complete when the full answer
// fits the limit, otherwise truncated to at most the limit.
func checkListing(resp *queryResponse, got, want, limit int) error {
	if want <= limit {
		if got != want || resp.Truncated {
			return fmt.Errorf("got %d rows (truncated=%v), want all %d", got, resp.Truncated, want)
		}
		return nil
	}
	if got == 0 || got > limit || !resp.Truncated {
		return fmt.Errorf("got %d rows (truncated=%v), want 1..%d truncated", got, resp.Truncated, limit)
	}
	return nil
}
