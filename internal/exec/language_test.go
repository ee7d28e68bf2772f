package exec

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

var (
	docRelations = regexp.MustCompile("(?s)```relations\n(.*?)```")
	docExample   = regexp.MustCompile("(?s)```datalog\n(.*?)```\nAnswer: `([^`]*)`")
	docTuple     = regexp.MustCompile(`\(([0-9,]+)\)`)
)

// languageDoc reads docs/LANGUAGE.md: a database of the relations it
// defines, and its worked examples, each the rule text and its stated
// answer at indexes 1 and 2.
func languageDoc(t *testing.T) (*DB, [][]string) {
	doc, err := os.ReadFile("../../docs/LANGUAGE.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	rels := docRelations.FindStringSubmatch(text)
	if rels == nil {
		t.Fatal("no ```relations block")
	}
	db := NewDB()
	for _, line := range strings.Split(strings.TrimSpace(rels[1]), "\n") {
		name, tuples, _ := strings.Cut(line, ":")
		var b *trie.ColumnarBuilder
		for _, m := range docTuple.FindAllStringSubmatch(tuples, -1) {
			var tp []uint32
			for _, f := range strings.Split(m[1], ",") {
				v, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					t.Fatal(err)
				}
				tp = append(tp, uint32(v))
			}
			if b == nil {
				b = trie.NewColumnarBuilder(len(tp), semiring.None, nil)
			}
			b.Add(tp...)
		}
		db.AddTrie(strings.TrimSpace(name), b.Build())
	}
	examples := docExample.FindAllStringSubmatch(text, -1)
	if n := strings.Count(text, "```datalog"); n != len(examples) || n == 0 {
		t.Fatalf("%d datalog blocks, %d with an Answer line right after", n, len(examples))
	}
	return db, examples
}

// TestLanguageDoc runs every worked example of docs/LANGUAGE.md on the
// relations the document defines and checks the answer it states.
func TestLanguageDoc(t *testing.T) {
	db, examples := languageDoc(t)
	for _, ex := range examples {
		res, err := runWith(t, db.Fork(), ex[1], OptDefault, RunParams{})
		if err != nil {
			t.Fatalf("%s: %v", ex[1], err)
		}
		if got := renderAnswer(t, ex[1], res); got != ex[2] {
			t.Errorf("%s\ngot answer  %s\ndocs/LANGUAGE.md states %s", ex[1], got, ex[2])
		}
	}
}

// renderAnswer writes a result as docs/LANGUAGE.md does: a scalar as its
// value, a relation as its tuples in head order, sorted, each followed by
// its annotation when the result is annotated.
func renderAnswer(t *testing.T, query string, res *Result) string {
	if res.Trie.Arity == 0 {
		return strconv.FormatFloat(res.Scalar(), 'g', -1, 64)
	}
	prog := mustParse(t, query)
	head := prog.Rules[len(prog.Rules)-1].Head.Vars
	type row struct {
		key []uint32
		ann float64
	}
	var rows []row
	res.ForEach(func(tp []uint32, ann float64) {
		key := make([]uint32, len(tp))
		for i, a := range res.Attrs {
			key[slices.Index(head, a)] = tp[i]
		}
		rows = append(rows, row{key, ann})
	})
	slices.SortFunc(rows, func(a, b row) int { return slices.Compare(a.key, b.key) })
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = strings.ReplaceAll(strings.Trim(fmt.Sprint(r.key), "[]"), " ", ",")
		parts[i] = "(" + parts[i] + ")"
		if res.Trie.Annotated {
			parts[i] += ": " + strconv.FormatFloat(r.ann, 'g', -1, 64)
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
