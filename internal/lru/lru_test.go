package lru

import "testing"

func TestBudgetAndRecency(t *testing.T) {
	c := New[string, int](30)
	for i, k := range []string{"a", "b", "c"} {
		if added, evicted := c.Add(k, i, 10); !added || evicted != 0 {
			t.Fatalf("Add(%s) = %v, %d", k, added, evicted)
		}
	}
	if _, ok := c.Get("a"); !ok { // a is now the most recently used
		t.Fatal("a is not resident")
	}
	if added, evicted := c.Add("d", 3, 20); !added || evicted != 2 {
		t.Fatalf("Add(d) = %v, %d; want two evictions", added, evicted)
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("%s resident = %v, want %v", k, ok, want)
		}
	}
	if c.Len() != 2 || c.Bytes() != 30 {
		t.Fatalf("Len %d, Bytes %d; want 2, 30", c.Len(), c.Bytes())
	}

	// A key already present keeps its value; a value over the whole
	// budget is not kept and evicts nothing.
	if added, _ := c.Add("a", 99, 10); added {
		t.Fatal("re-adding a resident key reported an insert")
	}
	if v, _ := c.Get("a"); v != 0 {
		t.Fatalf("a = %d after a second Add, want the first value", v)
	}
	if added, evicted := c.Add("huge", 4, 31); added || evicted != 0 || c.Len() != 2 {
		t.Fatalf("Add(huge) = %v, %d, Len %d", added, evicted, c.Len())
	}
	if added, _ := New[string, int](0).Add("x", 1, 1); added {
		t.Fatal("a zero-budget cache kept an entry")
	}
}
