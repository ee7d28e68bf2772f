package ghd

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPlannerCannotSeeData enforces what makes plans pure: the packages
// that turn a query into a decomposition — the parser, the hypergraph,
// the LP solver and this one — reach no package that holds data, directly
// or through another internal package. A plan is then a function of the
// query and what exec tells the optimizer about the schema; nothing here
// could read a cardinality if it wanted to.
func TestPlannerCannotSeeData(t *testing.T) {
	const internal = "emptyheaded/internal/"
	forbidden := map[string]bool{"trie": true, "set": true, "exec": true, "core": true, "delta": true, "graph": true}
	via := map[string]string{"ghd": "", "hypergraph": "", "lp": "", "datalog": ""}
	queue := []string{"ghd", "hypergraph", "lp", "datalog"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for internal/%s (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				dep, ok := strings.CutPrefix(path, internal)
				if !ok {
					continue
				}
				if forbidden[dep] {
					t.Errorf("%s imports internal/%s%s: the planner must not see data", file, dep, via[pkg])
				}
				if _, seen := via[dep]; !seen {
					via[dep] = " (reached from internal/" + pkg + ")"
					queue = append(queue, dep)
				}
			}
		}
	}
}
