package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/datasets"
)

func TestCellFormatting(t *testing.T) {
	cases := []struct {
		c    Cell
		want string
	}{
		{Seconds(1500 * time.Millisecond), "1.50s"},
		{Seconds(2500 * time.Microsecond), "2.5ms"},
		{Seconds(800 * time.Nanosecond), "0.8µs"},
		{Ratio(3.456), "3.46x"},
		{Num(42), "42"},
		{Note("t/o"), "t/o"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Fatalf("Cell %v = %q want %q", c.c, got, c.want)
		}
	}
}

func TestTableFormatAligned(t *testing.T) {
	tbl := &Table{
		ID: "t", Title: "demo",
		Columns: []string{"a", "bb"},
		Rows: []Row{
			{Label: "row1", Cells: []Cell{Num(1), Num(2)}},
			{Label: "longer-row", Cells: []Cell{Num(3), Note("t/o")}},
		},
	}
	s := tbl.Format()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "t/o") {
		t.Fatalf("format:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d:\n%s", len(lines), s)
	}
}

// TestEveryExperimentProducesATable is the tier-1 smoke of the table
// code: every experiment id resolves, runs in Quick mode with one
// repetition, and returns a non-empty table whose rows match its header
// and whose cells all format to finite values. It reads no cell against
// another: what the numbers are is eh-bench's output, for a person to
// hold against the paper. The dataset presets are shrunk first, before
// anything loads and caches them — edges harder than nodes, so the
// single-bag barbell of tables 8 and 13 finishes instead of running into
// its 20 s "t/o" cap cell after cell; at full size Quick mode takes minutes.
func TestEveryExperimentProducesATable(t *testing.T) {
	for i := range datasets.Presets {
		datasets.Presets[i].Nodes /= 10
		datasets.Presets[i].UndirEdges /= 200
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) != 13 {
		t.Fatalf("%d experiments, the paper's evaluation has 13: %v", len(IDs()), IDs())
	}
	for _, id := range IDs() {
		run, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s unmapped", id)
		}
		tbl := run(Config{Reps: 1, Quick: true})
		if tbl.ID != id || tbl.Title == "" || len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
			t.Fatalf("%s: malformed table %+v", id, tbl)
		}
		for _, r := range tbl.Rows {
			if r.Label == "" || len(r.Cells) != len(tbl.Columns) {
				t.Fatalf("%s: row %q has %d cells for %d columns", id, r.Label, len(r.Cells), len(tbl.Columns))
			}
			for ci, c := range r.Cells {
				if c.Note == "" && (math.IsNaN(c.Value) || math.IsInf(c.Value, 0) || c.Value < 0) {
					t.Fatalf("%s: row %q column %q holds %v", id, r.Label, tbl.Columns[ci], c.Value)
				}
				if c.String() == "" {
					t.Fatalf("%s: row %q column %q formats empty", id, r.Label, tbl.Columns[ci])
				}
			}
		}
		if lines := strings.Count(tbl.Format(), "\n"); lines != len(tbl.Rows)+2 {
			t.Fatalf("%s: formatted to %d lines for %d rows:\n%s", id, lines, len(tbl.Rows), tbl.Format())
		}
	}
}
