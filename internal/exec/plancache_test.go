package exec

import "testing"

func TestLRUCacheEviction(t *testing.T) {
	c := NewLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a", nil) // a most recent
	c.Put("c", 3)   // evicts b
	if _, ok := c.Get("b", nil); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a", nil); !ok {
		t.Error("a should have survived")
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
	// A value the caller rejects is a miss, and a Put replaces it.
	if _, ok := c.Get("a", func(v int) bool { return v != 1 }); ok {
		t.Error("a rejected value was returned")
	}
	c.Put("a", 4)
	if v, ok := c.Get("a", nil); !ok || v != 4 {
		t.Errorf("after the replacing put: %v, %v", v, ok)
	}
	if st := c.Stats(); st.Size != 2 || st.Hits != 3 || st.Misses != 2 || st.Evictions != 1 {
		t.Errorf("stats after a rejected get: %+v", st)
	}
}
