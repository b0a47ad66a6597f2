package derefcache

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// A commit to another object leaves an entry serving; a commit to its
// own object closes it at the commit's epoch, for readers from there on.
func TestInvalidateClosesOnlyItsEntry(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, 0, 5, 42, []byte("v5"))
	c.Put(9, 0, 5, 90, []byte("w5"))
	c.Invalidate(9, 0, 6)
	if vid, _, ok := c.Get(7, 0, 6); !ok || vid != 42 {
		t.Fatalf("entry closed by another object's invalidation: (%d, %v)", vid, ok)
	}
	if _, _, ok := c.Get(9, 0, 6); ok {
		t.Fatal("invalidated entry served at its invalidation epoch")
	}
	if vid, _, ok := c.Get(9, 0, 5); !ok || vid != 90 {
		t.Fatalf("invalidated entry missed below its invalidation: (%d, %v)", vid, ok)
	}
	// An invalidation on another shard closes nothing on this one.
	c.Invalidate(7, 1, 7)
	if _, _, ok := c.Get(7, 0, 7); !ok {
		t.Fatal("entry closed by an invalidation on another shard")
	}
	// A later invalidation of an already closed entry keeps the earlier
	// end: the entry was stale from it on.
	c.Invalidate(9, 0, 8)
	if _, _, ok := c.Get(9, 0, 7); ok {
		t.Fatal("second invalidation reopened an entry")
	}
}

// A Put read below the bucket's floor for its shard is refused; one at
// or above it stores the entry open again. The floor is the newest
// invalidation's epoch, it covers the bucket's other objects, and Reset
// keeps it.
func TestPutBelowFloorRefused(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, 0, 5, 42, []byte("v5"))
	c.Invalidate(7, 0, 8)

	c.Put(7, 0, 7, 42, []byte("v5")) // pinned before the commit at 8
	if _, _, ok := c.Get(7, 0, 9); ok {
		t.Fatal("Put read below the floor reopened the entry")
	}
	c.Put(9, 0, 7, 90, []byte("w7"))
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("Put below the floor stored an entry: %+v", st)
	}
	c.Put(9, 1, 7, 90, []byte("w7")) // shard 1 has its own floor
	if _, _, ok := c.Get(9, 1, 7); !ok {
		t.Fatal("floor of shard 0 refused a Put on shard 1")
	}

	c.Put(7, 0, 8, 43, []byte("v8"))
	if vid, content, ok := c.Get(7, 0, 20); !ok || vid != 43 || string(content) != "v8" {
		t.Fatalf("Put at the floor did not re-validate: (%d, %q, %v)", vid, content, ok)
	}
	if _, _, ok := c.Get(7, 0, 7); ok {
		t.Fatal("re-validated entry served below the epoch it was read at")
	}

	// Two commits to 7, at 10 and then 12: a Put read at 11 saw the
	// first and not the second, so the floor must be 12, not 10.
	c.Invalidate(7, 0, 10)
	c.Invalidate(7, 0, 12)
	c.Put(7, 0, 11, 44, []byte("v10"))
	if _, _, ok := c.Get(7, 0, 12); ok {
		t.Fatal("Put between two invalidations served past the second")
	}

	c.Reset()
	c.Put(7, 0, 11, 44, []byte("v10"))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatal("Reset dropped the floor")
	}
	c.Put(7, 0, 12, 45, []byte("v12"))
	if _, _, ok := c.Get(7, 0, 12); !ok {
		t.Fatal("Put at the floor refused after Reset")
	}
}

func TestInvalidateAllocatesNothing(t *testing.T) {
	c := New(1<<20, 4, 8)
	c.Put(7, 0, 1, 1, []byte("x"))
	epoch := uint64(1)
	if n := testing.AllocsPerRun(100, func() {
		epoch++
		c.Invalidate(7, 0, epoch)
		c.Invalidate(8, 9, epoch) // no entry, untracked shard
	}); n != 0 {
		t.Fatalf("Invalidate allocates %.1f per call pair", n)
	}
}

// Writers commit to random objects of one shard, each invalidating the
// object at the epoch it then publishes, while readers pinned at a
// published epoch Get, and on a miss read the state at their epoch and
// Put it — sometimes after the writers moved on. No Get at E may return
// a version that a commit at or below E replaced.
func TestInvalidationNeverServesSuperseded(t *testing.T) {
	const objects, writers, readers, commits = 8, 2, 4, 3000
	c := New(1<<20, 2, 1)

	var (
		wmu       sync.Mutex // the shard's writer mutex
		published atomic.Uint64
		hmu       sync.RWMutex
		changed   [objects][]uint64 // epochs each object changed at; its vid is the epoch
		done      atomic.Bool
		stale     atomic.Int64
	)
	for o := range changed {
		changed[o] = []uint64{0}
	}
	// latest is o's vid in the state published at epoch e.
	latest := func(o int, e uint64) uint64 {
		hmu.RLock()
		defer hmu.RUnlock()
		h := changed[o]
		return h[sort.Search(len(h), func(i int) bool { return h[i] > e })-1]
	}
	content := func(vid uint64) []byte { return binary.BigEndian.AppendUint64(nil, vid) }

	// The writers start once every reader runs: otherwise a loaded
	// machine can finish the commits before a reader is scheduled.
	var started sync.WaitGroup
	started.Add(readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			started.Wait()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < commits/writers; i++ {
				o := rng.Intn(objects)
				wmu.Lock()
				u := published.Load() + 1
				c.Invalidate(uint64(o), 0, u)
				hmu.Lock()
				changed[o] = append(changed[o], u)
				hmu.Unlock()
				published.Store(u)
				wmu.Unlock()
				if i%8 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			started.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				e := published.Load() // one pinned read transaction
				for k := 0; k < 4; k++ {
					o := rng.Intn(objects)
					if vid, got, ok := c.Get(uint64(o), 0, e); ok {
						if want := latest(o, e); vid != want || binary.BigEndian.Uint64(got) != vid {
							stale.Add(1)
						}
						continue
					}
					vid := latest(o, e)
					if rng.Intn(2) == 0 {
						runtime.Gosched() // let a commit land between the read and the Put
					}
					c.Put(uint64(o), 0, e, vid, content(vid))
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
	if n := stale.Load(); n != 0 {
		t.Fatalf("%d Gets served a version a commit at or below their epoch replaced", n)
	}
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stress saw %d hits and %d misses; it exercises nothing", st.Hits, st.Misses)
	}
}
