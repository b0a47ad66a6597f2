package derefcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestGetMissThenHit(t *testing.T) {
	c := New(1<<20, 4, 8)
	if _, _, ok := c.Get(7, 0, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, 0, 1, 42, []byte("hello"))
	vid, content, ok := c.Get(7, 0, 1)
	if !ok || vid != 42 || !bytes.Equal(content, []byte("hello")) {
		t.Fatalf("got (%d, %q, %v), want (42, hello, true)", vid, content, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss 1 entry", st)
	}
	h, m := c.ShardStats(0)
	if h != 1 || m != 1 {
		t.Fatalf("shard stats (%d,%d), want (1,1)", h, m)
	}
}

func TestEpochTagMismatchNeverServes(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, 0, 5, 42, []byte("v5"))

	// Newer reader epoch on the same shard: the entry serves every epoch
	// until its invalidation, and none from it on.
	if _, _, ok := c.Get(7, 0, 6); !ok {
		t.Fatal("open entry missed at a newer epoch")
	}
	c.Invalidate(7, 0, 8)
	if _, _, ok := c.Get(7, 0, 7); !ok {
		t.Fatal("entry missed below its invalidation")
	}
	if _, _, ok := c.Get(7, 0, 8); ok {
		t.Fatal("served entry at the epoch it was invalidated at")
	}

	// Older reader epoch: must miss but must NOT evict the fresh entry.
	c = New(1<<20, 1, 8)
	c.Put(7, 0, 5, 42, []byte("v5"))
	if _, _, ok := c.Get(7, 0, 4); ok {
		t.Fatal("served entry tagged with a newer epoch")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatal("older-epoch probe evicted a fresh entry")
	}

	// Different shard slot, same epoch value: must miss, must not evict.
	if _, _, ok := c.Get(7, 1, 5); ok {
		t.Fatal("served entry tagged with a different shard")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatal("cross-shard probe evicted an entry")
	}

	// Exact tag still hits.
	if _, _, ok := c.Get(7, 0, 5); !ok {
		t.Fatal("exact (shard, epoch) probe missed")
	}
}

func TestPutReplacesEntry(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, 0, 5, 42, []byte("old"))
	c.Put(7, 0, 6, 43, []byte("newer"))
	vid, content, ok := c.Get(7, 0, 6)
	if !ok || vid != 43 || string(content) != "newer" {
		t.Fatalf("got (%d, %q, %v) after replace", vid, content, ok)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("replace left %d entries", st.Entries)
	}
	want := int64(len("newer")) + entryOverhead
	if st.Bytes != want {
		t.Fatalf("bytes %d after replace, want %d", st.Bytes, want)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// One bucket with room for ~4 entries of 100 bytes + overhead.
	per := int64(4 * (100 + entryOverhead))
	c := New(per, 1, 8)
	payload := make([]byte, 100)
	for i := 0; i < 32; i++ {
		c.Put(uint64(i), 0, 1, uint64(i), payload)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 8x overcommit")
	}
	if st.Bytes > per {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, per)
	}
	if st.Entries == 0 || st.Entries > 4 {
		t.Fatalf("entries %d after pressure, want 1..4", st.Entries)
	}
	// Most recent insert survives, oldest is gone.
	if _, _, ok := c.Get(31, 0, 1); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, _, ok := c.Get(0, 0, 1); ok {
		t.Fatal("oldest entry survived 8x overcommit")
	}
}

func TestLRUTouchOrder(t *testing.T) {
	per := int64(2 * (10 + entryOverhead))
	c := New(per, 1, 8)
	c.Put(1, 0, 1, 1, make([]byte, 10))
	c.Put(2, 0, 1, 2, make([]byte, 10))
	// Touch 1 so 2 becomes the LRU victim.
	if _, _, ok := c.Get(1, 0, 1); !ok {
		t.Fatal("expected hit on 1")
	}
	c.Put(3, 0, 1, 3, make([]byte, 10))
	if _, _, ok := c.Get(1, 0, 1); !ok {
		t.Fatal("recently touched entry was evicted")
	}
	if _, _, ok := c.Get(2, 0, 1); ok {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestOversizedContentNotCached(t *testing.T) {
	c := New(256, 1, 8)
	c.Put(1, 0, 1, 1, make([]byte, 1024))
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized content was cached: %+v", st)
	}
}

func TestGetCopiesOut(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(1, 0, 1, 1, []byte("abc"))
	_, content, ok := c.Get(1, 0, 1)
	if !ok {
		t.Fatal("miss")
	}
	content[0] = 'X'
	_, again, _ := c.Get(1, 0, 1)
	if string(again) != "abc" {
		t.Fatal("caller mutation leaked into cache-owned bytes")
	}
}

func TestReset(t *testing.T) {
	c := New(1<<20, 4, 8)
	for i := 0; i < 16; i++ {
		c.Put(uint64(i), 0, 1, uint64(i), []byte("x"))
	}
	c.Reset()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("reset left %+v", st)
	}
	if _, _, ok := c.Get(3, 0, 1); ok {
		t.Fatal("hit after reset")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64<<10, 8, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				o := uint64(i % 97)
				if i%3 == 0 {
					c.Put(o, w%4, uint64(i/97+1), o, []byte(fmt.Sprintf("w%d-%d", w, i)))
				} else {
					c.Get(o, w%4, uint64(i/97+1))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 {
		t.Fatalf("negative byte accounting: %+v", st)
	}
}

// The totals are the sum of the per-shard counters, and a probe from a
// shard slot beyond the tracked range still lands in them.
func TestStatsSumShardsAndOverflow(t *testing.T) {
	c := New(1<<20, 4, 2)
	c.Put(1, 0, 1, 10, []byte("a"))
	c.Put(2, 1, 1, 20, []byte("b"))
	c.Put(3, 7, 1, 30, []byte("c")) // slot 7 is not tracked
	for _, p := range []struct {
		o     uint64
		shard int
	}{{1, 0}, {1, 0}, {2, 1}, {3, 7}, {9, 0}, {9, 7}, {9, -1}} {
		c.Get(p.o, p.shard, 1)
	}
	if h, m := c.ShardStats(0); h != 2 || m != 1 {
		t.Fatalf("shard 0 = %d/%d, want 2/1", h, m)
	}
	if h, m := c.ShardStats(1); h != 1 || m != 0 {
		t.Fatalf("shard 1 = %d/%d, want 1/0", h, m)
	}
	if h, m := c.ShardStats(7); h != 0 || m != 0 {
		t.Fatalf("untracked shard 7 = %d/%d, want 0/0", h, m)
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 3 {
		t.Fatalf("totals = %d/%d, want 4/3", st.Hits, st.Misses)
	}
}
