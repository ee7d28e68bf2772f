package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"

	"emptyheaded/internal/core"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/storage"
)

// ExplainRequest is the /explain body.
type ExplainRequest struct {
	Query string `json:"query"`
}

// explain does the same parse + GHD-compile work as a query miss.
func (s *Server) explain(_ context.Context, req *ExplainRequest, _ *obs.Request) (any, error) {
	plan, err := s.eng.Explain(req.Query)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return map[string]string{"plan": plan}, nil
}

func (s *Server) relations(context.Context, *struct{}, *obs.Request) (any, error) {
	return map[string]any{"relations": s.eng.Relations()}, nil
}

func (s *Server) stats(context.Context, *struct{}, *obs.Request) (any, error) {
	return s.StatsSnapshot(), nil
}

// LoadRequest is the /load body; exactly one of Path, Edges, Tuples or
// Columns must be set. Path and Edges load a binary edge relation (Path
// reads a "src dst" edge-list file server-side, rebuilding the identifier
// dictionary); Tuples loads a generic relation of the given arity from
// dense codes, optionally annotated under Op; Columns loads the same
// shape column-wise (columns[i] holds attribute i of every row), feeding
// the columnar trie builder directly with no row transposition.
type LoadRequest struct {
	Name       string     `json:"name"`
	Path       string     `json:"path,omitempty"`
	Undirected bool       `json:"undirected,omitempty"`
	Edges      [][2]int64 `json:"edges,omitempty"`
	Tuples     [][]uint32 `json:"tuples,omitempty"`
	Columns    [][]uint32 `json:"columns,omitempty"`
	Arity      int        `json:"arity,omitempty"`
	Anns       []float64  `json:"anns,omitempty"`
	Op         string     `json:"op,omitempty"`
}

// maxArity is the widest relation a snapshot can hold (trie.FromBuffers
// refuses more). Wider input is refused, not sized for: the builders
// allocate per attribute before they look at a single row.
const maxArity = 64

func (r *LoadRequest) validate() error {
	if r.Columns != nil && len(r.Columns) == 0 {
		return badRequest("\"columns\" is empty: a relation needs at least one attribute")
	}
	if max(r.Arity, len(r.Columns)) > maxArity {
		return badRequest("more than %d attributes", maxArity)
	}
	return need("name", r.Name)
}

// load registers a relation. Graph parsing and trie construction are
// heavy, hence the worker slot. No cache purge: result-cache entries
// carry the per-relation epochs of their read sets, so entries that read
// req.Name (or that decode through a dictionary this load replaced)
// invalidate lazily on their next lookup, while unrelated queries keep
// serving from cache. Plan-cache entries stay: a plan does not depend on
// the data.
func (s *Server) load(_ context.Context, req *LoadRequest, _ *obs.Request) (any, error) {
	if err := s.loadRelation(req); err != nil {
		return nil, err
	}
	rel, _ := s.eng.DB.Relation(req.Name)
	return timedReply{
		"name":        req.Name,
		"arity":       rel.Arity,
		"cardinality": rel.Cardinality(),
	}, nil
}

func (s *Server) loadRelation(req *LoadRequest) error {
	switch {
	case req.Path != "":
		f, err := os.Open(req.Path)
		if err != nil {
			return badRequest("open %s: %v", req.Path, err)
		}
		defer f.Close()
		return s.eng.LoadEdgeList(req.Name, f, req.Undirected)
	case req.Edges != nil:
		g, dict := graph.FromEdgePairs(req.Edges, req.Undirected)
		s.eng.LoadGraphWithDict(req.Name, g, dict)
		return nil
	case req.Tuples != nil:
		if req.Arity <= 0 {
			return badRequest("tuple load requires \"arity\"")
		}
		for _, t := range req.Tuples {
			if len(t) != req.Arity {
				return badRequest("tuple %v does not match arity %d", t, req.Arity)
			}
		}
		if req.Anns == nil {
			s.eng.AddRelation(req.Name, req.Arity, req.Tuples)
			return nil
		}
		op, err := semiring.ParseOp(req.Op)
		if err != nil {
			return badRequest("%v", err)
		}
		if err := s.eng.AddAnnotatedRelation(req.Name, req.Arity, op, req.Tuples, req.Anns); err != nil {
			return badRequest("%v", err)
		}
		return nil
	case req.Columns != nil:
		if req.Arity > 0 && req.Arity != len(req.Columns) {
			return badRequest("%d columns do not match arity %d", len(req.Columns), req.Arity)
		}
		op := semiring.None
		if req.Anns != nil {
			var err error
			if op, err = semiring.ParseOp(req.Op); err != nil {
				return badRequest("%v", err)
			}
		}
		if err := s.eng.AddRelationColumns(req.Name, req.Columns, req.Anns, op); err != nil {
			return badRequest("%v", err)
		}
		return nil
	}
	return badRequest("one of \"path\", \"edges\", \"tuples\" or \"columns\" required")
}

// UpdateRequest is the /update body: streaming inserts and/or deletes
// against one relation, as rows (tuples of dense codes) or columns
// (columns[i] holds attribute i of every row — no server-side
// transposition). Deletes apply before inserts. Anns annotates the
// inserted rows when the relation is annotated; Op names the semiring
// when the batch creates a new annotated relation.
type UpdateRequest struct {
	Name          string     `json:"name"`
	Inserts       [][]uint32 `json:"inserts,omitempty"`
	InsertColumns [][]uint32 `json:"insert_columns,omitempty"`
	Deletes       [][]uint32 `json:"deletes,omitempty"`
	DeleteColumns [][]uint32 `json:"delete_columns,omitempty"`
	Anns          []float64  `json:"anns,omitempty"`
	Op            string     `json:"op,omitempty"`
}

func (r *UpdateRequest) validate() error { return need("name", r.Name) }

// update applies one streaming update batch: journaled in the WAL (when
// the server runs with one) before it applies, visible to queries
// through the relation's delta overlay immediately after. Only the
// updated relation's epoch advances, so cached results of queries that
// never read it survive. Mini-trie builds and the merged-view install
// are bounded by the same worker pool as queries and loads.
func (s *Server) update(_ context.Context, req *UpdateRequest, rec *obs.Request) (any, error) {
	rec.Annot("relation", req.Name)
	b := core.UpdateBatch{Rel: req.Name, InsAnns: req.Anns}
	if req.Op != "" {
		op, err := semiring.ParseOp(req.Op)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		b.Op = op
	}
	var err error
	if b.InsCols, err = updateCols(req.Inserts, req.InsertColumns, "insert"); err != nil {
		return nil, err
	}
	if b.DelCols, err = updateCols(req.Deletes, req.DeleteColumns, "delete"); err != nil {
		return nil, err
	}
	res, err := s.eng.UpdateTraced(b, &rec.Trace)
	if errors.Is(err, core.ErrDurability) {
		// The WAL could not persist the batch (disk full, I/O error): a
		// server-side, retryable failure — not a bad request. Book it with
		// the breaker; enough in a row trip read-only mode.
		s.brk.failure()
		return nil, err
	}
	if err != nil {
		return nil, badRequest("%v", err)
	}
	s.brk.success()
	return timedReply{
		"name":         res.Rel,
		"seq":          res.Seq,
		"inserted":     res.Inserted,
		"deleted":      res.Deleted,
		"cardinality":  res.Cardinality,
		"overlay_rows": res.OverlayRows,
		"trace_id":     rec.ID,
	}, nil
}

// updateCols normalizes one side of an update request to columns.
func updateCols(rows [][]uint32, cols [][]uint32, side string) ([][]uint32, error) {
	if rows != nil && cols != nil {
		return nil, badRequest("give %ss as rows or columns, not both", side)
	}
	if len(cols) > maxArity || (len(rows) > 0 && len(rows[0]) > maxArity) {
		return nil, badRequest("%s: more than %d attributes", side, maxArity)
	}
	if cols != nil {
		return cols, nil
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out, err := core.RowsToColumns(rows)
	if err != nil {
		return nil, badRequest("%s rows: %v", side, err)
	}
	return out, nil
}

// CompactRequest is the /compact body.
type CompactRequest struct {
	Name string `json:"name"`
}

func (r *CompactRequest) validate() error { return need("name", r.Name) }

// compact folds the named relation's overlay into a fresh base trie (a
// no-op when the overlay is empty or a background compaction is already
// running).
func (s *Server) compact(_ context.Context, req *CompactRequest, _ *obs.Request) (any, error) {
	did, err := s.eng.Compact(req.Name)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return timedReply{"name": req.Name, "compacted": did}, nil
}

// SnapshotRequest is the /snapshot and /restore body; Dir falls back to
// the server's configured data directory.
type SnapshotRequest struct {
	Dir string `json:"dir,omitempty"`
}

func (s *Server) snapshotDir(req *SnapshotRequest) (string, error) {
	if dir := cmp.Or(req.Dir, s.cfg.DataDir); dir != "" {
		return dir, nil
	}
	return "", badRequest("no \"dir\" in request and no -data-dir configured")
}

// catalogReply is the shared /snapshot and /restore reply.
func catalogReply(dir string, cat *storage.Catalog) timedReply {
	return timedReply{
		"dir":       dir,
		"relations": len(cat.Relations),
		"tuples":    cat.CardinalityTotal(),
		"bytes":     cat.BytesTotal(),
	}
}

// snapshot persists the whole database as a binary snapshot
// (POST /snapshot {"dir": "..."}). The snapshot is taken from a fork, so
// concurrent queries and loads proceed.
func (s *Server) snapshot(_ context.Context, req *SnapshotRequest, _ *obs.Request) (any, error) {
	dir, err := s.snapshotDir(req)
	if err != nil {
		return nil, err
	}
	cat, err := s.eng.Snapshot(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return catalogReply(dir, cat), nil
}

// restore atomically replaces the database from a snapshot directory
// (POST /restore {"dir": "..."}): in-flight queries finish on their
// forks of the old database, new requests see the restored one. The
// result cache is purged wholesale — snapshot epochs come from another
// database generation and are not comparable with the entries' stamps.
func (s *Server) restore(_ context.Context, req *SnapshotRequest, _ *obs.Request) (any, error) {
	dir, err := s.snapshotDir(req)
	if err != nil {
		return nil, err
	}
	cat, err := s.eng.Restore(dir)
	var ce *storage.CorruptionError
	switch {
	case errors.As(err, &ce):
		return nil, &httpError{http.StatusConflict, err.Error()}
	case err != nil:
		return nil, badRequest("restore: %v", err)
	}
	// New generation first (strands in-flight cache fills), then drop the
	// old generation's entries wholesale.
	s.gen.Add(1)
	s.results.Purge()
	return catalogReply(dir, cat), nil
}
