package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRouteInventory: the paths the mux serves are exactly the rows of
// the endpoint table in docs/OBSERVABILITY.md, so no view is added or
// removed without the doc row that names its reader.
func TestRouteInventory(t *testing.T) {
	// Registered paths: every literal handed to pipeline or to the mux in
	// this package's non-test sources, each confirmed against the mux.
	s, _ := newTestService(t, Config{})
	defer s.Close()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	regRe := regexp.MustCompile(`(?:pipeline\(s, |s\.mux\.HandleFunc\()"(/[^"]*)"`)
	var served []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regRe.FindAllStringSubmatch(string(src), -1) {
			_, pattern := s.mux.Handler(httptest.NewRequest(http.MethodGet, m[1], nil))
			if pattern != m[1] {
				t.Fatalf("%s registers %s but the mux matches it as %q", f, m[1], pattern)
			}
			served = append(served, m[1])
		}
	}

	// Documented paths: the first column of the endpoint reference table,
	// with "<id>" placeholders and query strings cut off.
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "## Endpoint reference\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no endpoint reference section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	rowRe := regexp.MustCompile("(?m)^\\| `(?:GET |POST )?(/[^`?<]*)")
	var documented []string
	for _, m := range rowRe.FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}

	slices.Sort(served)
	slices.Sort(documented)
	if len(served) == 0 || !slices.Equal(served, documented) {
		t.Fatalf("mux serves %v\ndocs/OBSERVABILITY.md lists %v", served, documented)
	}
}
