package obs

import (
	"sort"
	"sync"
	"time"
)

// RelationHeat is one relation's JSON row for /debug/relations.
type RelationHeat struct {
	Relation string `json:"relation"`
	// Reads counts query executions over the relation; OverlayReads the
	// subset that went through a delta-overlay merged view.
	// OverlayReadFraction = OverlayReads/Reads.
	Reads               int64   `json:"reads"`
	OverlayReads        int64   `json:"overlay_reads,omitempty"`
	OverlayReadFraction float64 `json:"overlay_read_fraction"`
	// Loop-nest attribution (participation counts across all queries: a
	// level probing a 3-atom intersection books its probes to all three
	// relations).
	Probes        int64 `json:"probes,omitempty"`
	Intersections int64 `json:"intersections,omitempty"`
	Skipped       int64 `json:"skipped,omitempty"`
	// WordParallel counts kernel dispatches that ran word-parallel dense
	// routes while reading this relation; WordParallel/Intersections ≈
	// how often the adaptive layouts put the relation's sets in dense form.
	WordParallel int64 `json:"word_parallel,omitempty"`
	// LevelProbes[i] is the probe count attributed to original column i.
	LevelProbes []int64 `json:"level_probes,omitempty"`
	// Update-path counters.
	UpdateBatches int64  `json:"update_batches,omitempty"`
	UpdateRows    int64  `json:"update_rows,omitempty"`
	UpdateBytes   int64  `json:"update_bytes,omitempty"`
	LastRead      string `json:"last_read,omitempty"`
	LastUpdate    string `json:"last_update,omitempty"`
}

// relHeat is one relation's live row plus the recency stamps Snapshot
// renders.
type relHeat struct {
	RelationHeat
	lastRead, lastUpdate time.Time
}

// RelHeat maps relation name → heat counters. One short mutex hold per
// finished request that read or updated a relation.
type RelHeat struct {
	mu   sync.Mutex
	rels map[string]*relHeat
}

// NewRelHeat builds an empty heat map.
func NewRelHeat() *RelHeat {
	return &RelHeat{rels: map[string]*relHeat{}}
}

func (m *RelHeat) rel(name string) *relHeat {
	h, ok := m.rels[name]
	if !ok {
		h = &relHeat{RelationHeat: RelationHeat{Relation: name}}
		m.rels[name] = h
	}
	return h
}

// Observe books one finished record: each relation of its read set,
// the loop-nest cells of its execution, and the update batch it applied.
func (m *RelHeat) Observe(r *Request) {
	if len(r.Reads) == 0 && len(r.Levels) == 0 && r.UpdateRel == "" {
		return
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rd := range r.Reads {
		h := m.rel(rd.Rel)
		h.Reads++
		if rd.Overlay {
			h.OverlayReads++
		}
		h.lastRead = now
	}
	for _, c := range r.Levels {
		h := m.rel(c.Rel)
		h.Probes += c.Probes
		h.Intersections += c.Intersections
		h.Skipped += c.Skipped
		h.WordParallel += c.WordParallel
		if c.Col >= 0 {
			for len(h.LevelProbes) <= c.Col {
				h.LevelProbes = append(h.LevelProbes, 0)
			}
			h.LevelProbes[c.Col] += c.Probes
		}
	}
	if r.UpdateRel != "" {
		h := m.rel(r.UpdateRel)
		h.UpdateBatches++
		h.UpdateRows += r.UpdateRows
		h.UpdateBytes += r.UpdateBytes
		h.lastUpdate = now
	}
}

// Snapshot returns every relation's heat row, sorted by name.
func (m *RelHeat) Snapshot() []RelationHeat {
	m.mu.Lock()
	out := make([]RelationHeat, 0, len(m.rels))
	for _, h := range m.rels {
		r := h.RelationHeat
		r.LevelProbes = append([]int64(nil), h.LevelProbes...)
		if r.Reads > 0 {
			r.OverlayReadFraction = float64(r.OverlayReads) / float64(r.Reads)
		}
		if !h.lastRead.IsZero() {
			r.LastRead = h.lastRead.UTC().Format(time.RFC3339Nano)
		}
		if !h.lastUpdate.IsZero() {
			r.LastUpdate = h.lastUpdate.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, r)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Relation < out[j].Relation })
	return out
}
