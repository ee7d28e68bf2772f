// Package bench regenerates every table and figure of the paper's
// evaluation (§5, Appendices A and B). Each experiment returns a Table of
// measured values; cmd/eh-bench prints them. The tables are for reading
// against the paper's; numbers compared across commits come from
// benchmark/ (see benchmark/README.md).
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Cell is one measurement.
type Cell struct {
	// Value is seconds (Kind "s"), a ratio (Kind "x"), or a plain number.
	Value float64
	Kind  string
	// Note overrides the value ("t/o", "-").
	Note string
}

// Seconds formats a timing cell.
func Seconds(d time.Duration) Cell { return Cell{Value: d.Seconds(), Kind: "s"} }

// Ratio formats a relative-slowdown cell.
func Ratio(v float64) Cell { return Cell{Value: v, Kind: "x"} }

// Num formats a plain numeric cell.
func Num(v float64) Cell { return Cell{Value: v} }

// Note formats a textual cell ("t/o", "-").
func Note(s string) Cell { return Cell{Note: s} }

func (c Cell) String() string {
	if c.Note != "" {
		return c.Note
	}
	switch c.Kind {
	case "s":
		switch {
		case c.Value < 0.001:
			return fmt.Sprintf("%.1fµs", c.Value*1e6)
		case c.Value < 1:
			return fmt.Sprintf("%.1fms", c.Value*1e3)
		default:
			return fmt.Sprintf("%.2fs", c.Value)
		}
	case "x":
		return fmt.Sprintf("%.2fx", c.Value)
	default:
		if c.Value == float64(int64(c.Value)) && c.Value < 1e15 {
			return fmt.Sprintf("%d", int64(c.Value))
		}
		return fmt.Sprintf("%.3g", c.Value)
	}
}

// Row is one labeled line of a table.
type Row struct {
	Label string
	Cells []Cell
}

// Table is one regenerated experiment.
type Table struct {
	ID      string // "table5", "fig7", …
	Title   string
	Columns []string // cell headers (excluding the row label)
	Rows    []Row
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("dataset")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		if len(c) > widths[i+1] {
			widths[i+1] = len(c)
		}
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Cells))
		for ci, c := range r.Cells {
			s := c.String()
			cells[ri][ci] = s
			if ci+1 < len(widths) && len(s) > widths[ci+1] {
				widths[ci+1] = len(s)
			}
		}
	}
	fmt.Fprintf(&sb, "%-*s", widths[0]+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%*s", widths[i+1]+2, c)
	}
	sb.WriteString("\n")
	for ri, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", widths[0]+2, r.Label)
		for ci := range r.Cells {
			fmt.Fprintf(&sb, "%*s", widths[ci+1]+2, cells[ri][ci])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// timed measures one execution of f.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// timedBest runs f reps times and keeps the fastest (the paper averages
// the middle five of seven runs; min-of-k is the standard Go equivalent
// for stable micro-measurements).
func timedBest(reps int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		if d := timed(f); d < best {
			best = d
		}
	}
	return best
}

// Config scales the experiments.
type Config struct {
	// Reps is the number of repetitions per measurement (fastest kept).
	Reps int
	// Quick restricts experiments to fewer datasets/points for CI runs.
	Quick bool
	// PairwiseBudget bounds intermediate materialization for the
	// pairwise (SociaLite-style) baseline; exceeding it reports "t/o",
	// mirroring the paper's 30-minute timeouts.
	PairwiseBudget int64
}

// DefaultConfig is used by cmd/eh-bench.
var DefaultConfig = Config{Reps: 3, PairwiseBudget: 50_000_000}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 1
	}
	return c.Reps
}

func (c Config) budget() int64 {
	if c.PairwiseBudget == 0 {
		return 50_000_000
	}
	return c.PairwiseBudget
}

// experiments lists every experiment, in paper order.
var experiments = []struct {
	id  string
	run func(Config) *Table
}{
	{"table3", Table3}, {"fig5", Figure5}, {"fig6", Figure6}, {"fig7", Figure7},
	{"table4", Table4}, {"table5", Table5}, {"table6", Table6}, {"table7", Table7},
	{"table8", Table8}, {"table9", Table9}, {"table10", Table10},
	{"table11", Table11}, {"table13", Table13},
}

// ByID returns the experiment function for an id.
func ByID(id string) (func(Config) *Table, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// IDs lists experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
