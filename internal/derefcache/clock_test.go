package derefcache

import "testing"

// A hit buys its entry one pass of the eviction sweep: the entry
// survives the eviction round after the hit and goes in the next one,
// unless it is hit again in between.
func TestHitSparesEntryOnce(t *testing.T) {
	for _, again := range []bool{false, true} {
		c := New(2*(10+entryOverhead), 1, 8)
		c.Put(1, 0, 1, 1, make([]byte, 10))
		c.Put(2, 0, 1, 2, make([]byte, 10))
		if _, _, ok := c.Get(1, 0, 1); !ok {
			t.Fatal("expected hit on 1")
		}
		c.Put(3, 0, 1, 3, make([]byte, 10)) // round 1: 1 is spared, 2 goes
		if _, _, ok := c.Get(2, 0, 1); ok {
			t.Fatal("unreferenced entry survived the first round")
		}
		if again {
			if _, _, ok := c.Get(1, 0, 1); !ok {
				t.Fatal("referenced entry evicted in the first round")
			}
		}
		c.Put(4, 0, 1, 4, make([]byte, 10)) // 3 goes
		c.Put(5, 0, 1, 5, make([]byte, 10)) // round 2: 1 goes unless hit again
		_, _, ok := c.Get(1, 0, 1)
		if ok != again {
			t.Fatalf("hit again %v: entry present %v after the second round", again, ok)
		}
		if st := c.Stats(); st.Entries != 2 || st.Evictions != 3 {
			t.Fatalf("hit again %v: %+v, want 2 entries and 3 evictions", again, st)
		}
	}
}

// When every other entry was hit, the sweep passes them all and comes
// back to the entry just stored: it stays, and the oldest passed entry
// goes instead.
func TestPutKeepsEntryJustStored(t *testing.T) {
	c := New(2*(10+entryOverhead), 1, 8)
	c.Put(1, 0, 1, 1, make([]byte, 10))
	c.Put(2, 0, 1, 2, make([]byte, 10))
	c.Get(1, 0, 1)
	c.Get(2, 0, 1)
	c.Put(3, 0, 1, 3, make([]byte, 10))
	for o, want := range map[uint64]bool{1: false, 2: true, 3: true} {
		if _, _, ok := c.Get(o, 0, 1); ok != want {
			t.Errorf("entry %d present %v, want %v", o, ok, want)
		}
	}
}
