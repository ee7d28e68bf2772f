//go:build race

package server

// Under the race detector the same result-cache hit allocates three
// more times (41 allocs/op against 38), all of it instrumentation.
func init() { hitPathAllocBudget += 3 }
