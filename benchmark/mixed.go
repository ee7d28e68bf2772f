package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// The writer of serve_mixed: its batches, the model of what has been
// acknowledged, and the check of what the server recovers after a crash.

// mixedModel is the map-of-edges model of the batches serve_mixed's
// writer has been acknowledged: the live undirected reserve edges beyond
// the generated graph, each remembering the batch that inserted it.
type mixedModel struct {
	g       *graphData
	r       *rng
	live    map[uint64]int // reserve edge A[i]–B[j] → id of the inserting batch
	batches [][]uint64     // live insert batches, oldest first
	acked   int            // batches applied, inserts and deletes
	inserts int            // insert batches applied; the next one's id
	insert  bool           // whether the next batch inserts
}

func newMixedModel(g *graphData, seed uint64) *mixedModel {
	return &mixedModel{g: g, r: newRNG(seed + 2), live: map[uint64]int{}, insert: true}
}

// rows is the cardinality Edge must have.
func (m *mixedModel) rows() int { return 2 * (len(m.g.Src) + len(m.live)) }

// next returns the next batch as 64-row columns (32 undirected edges,
// both directions) and the function that applies it to the model once
// it is acknowledged. Inserts of fresh seeded reserve edges alternate
// with deletes of the oldest live batch, once updateLag batches are live.
func (m *mixedModel) next() (cols [][]uint32, del bool, apply func()) {
	var edges []uint64
	del = !m.insert && len(m.batches) >= updateLag
	if del {
		edges = m.batches[0]
	} else {
		f := m.g.Spec.Reserve
		picked := map[uint64]bool{}
		for len(edges) < updateRows/2 {
			i, j := m.r.intn(f), m.r.intn(f)
			a, b := m.g.reserveA(i), m.g.reserveB(j)
			k := edgeKey(min(a, b), max(a, b))
			if _, dup := m.live[k]; i == j || dup || picked[k] {
				continue
			}
			picked[k] = true
			edges = append(edges, k)
		}
	}
	cols = [][]uint32{make([]uint32, 0, updateRows), make([]uint32, 0, updateRows)}
	for _, k := range edges {
		u, v := uint32(k>>32), uint32(k)
		cols[0] = append(cols[0], u, v)
		cols[1] = append(cols[1], v, u)
	}
	return cols, del, func() {
		m.acked++
		m.insert = !m.insert
		if del {
			for _, k := range edges {
				delete(m.live, k)
			}
			m.batches = m.batches[1:]
			return
		}
		for _, k := range edges {
			m.live[k] = m.inserts
		}
		m.inserts++
		m.batches = append(m.batches, edges)
	}
}

type updateRequest struct {
	Name          string     `json:"name"`
	InsertColumns [][]uint32 `json:"insert_columns,omitempty"`
	DeleteColumns [][]uint32 `json:"delete_columns,omitempty"`
}

type updateAck struct {
	Cardinality int   `json:"cardinality"`
	ElapsedUS   int64 `json:"elapsed_us"`
}

// update posts the next batch and checks the acknowledged cardinality
// against the model.
func (m *mixedModel) update(h *httpClient) (*updateAck, time.Duration, error) {
	cols, del, apply := m.next()
	req := updateRequest{Name: "Edge", InsertColumns: cols}
	if del {
		req = updateRequest{Name: "Edge", DeleteColumns: cols}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	b, rtt, err := h.post("/update", body)
	if err != nil {
		return nil, rtt, err
	}
	apply()
	var ack updateAck
	if err := json.Unmarshal(b, &ack); err != nil {
		return nil, rtt, err
	}
	if ack.Cardinality != m.rows() {
		return &ack, rtt, fmt.Errorf("update: cardinality %d, model has %d rows", ack.Cardinality, m.rows())
	}
	return &ack, rtt, nil
}

// checkAfterCrash kills the server, restarts it on the same directories
// and compares what it recovered with the model of acknowledged batches.
// It returns the number of checks made and of checks failed: one check
// per acknowledged batch still live or deleted, plus the edge count and
// the triangle count.
func checkAfterCrash(in *inputs, env *serveEnv, p *serverProc, model *mixedModel, res *runResult) (attempted, failed int, err error) {
	p.kill()
	p2, err := startServer(env.bin, env.args...)
	if err != nil {
		return 0, 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	defer p2.kill()
	h := newHTTPClient(p2.base, 1)
	defer h.close()
	fail := func(n int, format string, args ...any) {
		failed += n
		res.note("after kill -9: " + fmt.Sprintf(format, args...))
	}

	scalar := func(text string) (float64, error) {
		body, err := json.Marshal(queryRequest{Query: text})
		if err != nil {
			return 0, err
		}
		b, _, err := h.post("/query", body)
		if err != nil {
			return 0, err
		}
		var resp queryResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			return 0, err
		}
		if resp.Scalar == nil {
			return 0, errors.New("no scalar in reply")
		}
		return *resp.Scalar, nil
	}
	attempted += 2
	if got, err := scalar(textEdgeCount); err != nil {
		fail(1, "edge count: %v", err)
	} else if got != float64(model.rows()) {
		fail(1, "edge count %v, model has %d rows", got, model.rows())
	}
	if got, err := scalar(textGlobalTriangle); err != nil {
		fail(1, "triangle count: %v", err)
	} else if got != float64(6*in.ans.Triangles) {
		fail(1, "triangle count %v, want %d", got, 6*in.ans.Triangles)
	}

	// Every row the server holds, against the model: a live batch with a
	// missing row was lost; a row of neither the generated graph nor a
	// live batch was resurrected, or never deleted.
	body, err := json.Marshal(queryRequest{Query: textAllEdges, Limit: 2 * model.rows(), Columns: true})
	if err != nil {
		return attempted, failed, err
	}
	b, _, err := h.post("/query", body)
	if err != nil {
		return attempted, failed, fmt.Errorf("edge dump after restart: %w", err)
	}
	var dump queryResponse
	if err := json.Unmarshal(b, &dump); err != nil {
		return attempted, failed, err
	}
	if len(dump.Columns) != 2 {
		return attempted, failed, errors.New("edge dump after restart: want two columns")
	}
	seen := map[uint64]bool{} // directed rows of live reserve edges
	generated, extra := 0, 0
	for i, x := range dump.Columns[0] {
		u, v := uint32(x), uint32(dump.Columns[1][i])
		if _, live := model.live[edgeKey(min(u, v), max(u, v))]; live {
			seen[edgeKey(u, v)] = true
		} else if in.g.hasEdge(u, v) {
			generated++
		} else {
			extra++
		}
	}
	lost := map[int]bool{}
	for k, batch := range model.live {
		u, v := uint32(k>>32), uint32(k)
		if !seen[edgeKey(u, v)] || !seen[edgeKey(v, u)] {
			lost[batch] = true
		}
	}
	attempted += model.acked + 1
	if len(lost) > 0 {
		fail(len(lost), "%d acknowledged insert batches lost rows", len(lost))
	}
	if extra > 0 {
		batches := (extra + updateRows - 1) / updateRows
		fail(batches, "%d rows outside the model, %d batches' worth", extra, batches)
	}
	if generated != 2*len(in.g.Src) {
		fail(1, "%d rows of the generated graph, want %d", generated, 2*len(in.g.Src))
	}
	return attempted, failed, nil
}
