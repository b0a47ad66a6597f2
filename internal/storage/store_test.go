package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/oid"
)

func tempStore(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.ode")
	st, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

// tempWriter is tempStore plus an untracked writer view, for tests that
// exercise page-level behaviour without a transaction layer.
func tempWriter(t *testing.T, opts Options) (*Store, *TxView, string) {
	t.Helper()
	st, path := tempStore(t, opts)
	return st, st.OpenWriter(nil), path
}

func TestCreateOpenRoundtrip(t *testing.T) {
	st, v, path := tempWriter(t, Options{PageSize: 1024})
	v.SetRoot(0, 7)
	v.SetCounter(2, 99)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.PageSize() != 1024 {
		t.Fatalf("page size %d", st2.PageSize())
	}
	v2 := st2.OpenWriter(nil)
	if v2.Root(0) != 7 {
		t.Fatalf("root = %v", v2.Root(0))
	}
	if v2.Counter(2) != 99 {
		t.Fatalf("counter = %d", v2.Counter(2))
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	_, path := tempStore(t, Options{})
	if _, err := Create(path, Options{}); err == nil {
		t.Fatal("Create over existing store must fail")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte("nope"), 300), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	st, v, path := tempWriter(t, Options{PageSize: 512})
	p, err := v.Allocate(PageSlotted)
	if err != nil {
		t.Fatal(err)
	}
	p = v.Touch(p)
	if _, err := SlottedInsert(p, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	pid := p.ID
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the allocated page on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[int(pid)*512+100] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Get(pid); !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestAllocateFreeReuse(t *testing.T) {
	_, v, _ := tempWriter(t, Options{PageSize: 512})
	p1, err := v.Allocate(PageSlotted)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := v.Allocate(PageBTree)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID == p2.ID {
		t.Fatal("duplicate allocation")
	}
	id1 := p1.ID
	if err := v.Free(id1); err != nil {
		t.Fatal(err)
	}
	p3, err := v.Allocate(PageOverflow)
	if err != nil {
		t.Fatal(err)
	}
	if p3.ID != id1 {
		t.Fatalf("free page not reused: got %v want %v", p3.ID, id1)
	}
	if p3.Type() != PageOverflow {
		t.Fatalf("recycled page type %v", p3.Type())
	}
}

func TestFreeSuperblockRejected(t *testing.T) {
	_, v, _ := tempWriter(t, Options{})
	if err := v.Free(0); err == nil {
		t.Fatal("freeing page 0 must fail")
	}
}

func TestPoolEviction(t *testing.T) {
	st, v, _ := tempWriter(t, Options{PageSize: 512, PoolPages: 8})
	// Allocate and flush many pages so they become clean and evictable.
	var ids []oid.PageID
	for i := 0; i < 64; i++ {
		p, err := v.Allocate(PageSlotted)
		if err != nil {
			t.Fatal(err)
		}
		p = v.Touch(p)
		if _, err := SlottedInsert(p, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	if err := st.FlushAll(); err != nil {
		t.Fatal(err)
	}
	total, dirty := st.Pool().Resident()
	if dirty != 0 {
		t.Fatalf("dirty pages after flush: %d", dirty)
	}
	if total > 16 { // 8 cap + pinned super + slack
		t.Fatalf("pool did not evict: %d resident", total)
	}
	// Every page still readable (from disk) with intact content.
	for i, id := range ids {
		p, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SlottedRead(p, 0)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("page %v content lost: %v", id, err)
		}
	}
	_, _, ev := poolCounts(st.Pool())
	if ev == 0 {
		t.Fatal("expected evictions")
	}
}

func TestSuperblockSurvivesEvictionPressure(t *testing.T) {
	st, v, path := tempWriter(t, Options{PageSize: 512, PoolPages: 8})
	v.SetCounter(0, 1234)
	for i := 0; i < 50; i++ {
		if _, err := v.Allocate(PageSlotted); err != nil {
			t.Fatal(err)
		}
		if err := st.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	if v.Counter(0) != 1234 {
		t.Fatal("superblock counter lost under pressure")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.OpenWriter(nil).Counter(0) != 1234 {
		t.Fatal("superblock counter lost across reopen")
	}
}

func TestHeapInsertReadDelete(t *testing.T) {
	_, v, _ := tempWriter(t, Options{PageSize: 512})
	h := NewHeap(v, nil)
	r1, err := h.Insert([]byte("hello heap"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(r1)
	if err != nil || string(got) != "hello heap" {
		t.Fatalf("read: %q %v", got, err)
	}
	if err := h.Delete(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(r1); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("want ErrNoRecord, got %v", err)
	}
}

func TestHeapLargeRecordOverflow(t *testing.T) {
	st, v, _ := tempWriter(t, Options{PageSize: 512})
	h := NewHeap(v, nil)
	big := make([]byte, 10_000)
	rng := rand.New(rand.NewSource(7))
	rng.Read(big)
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow roundtrip corrupt")
	}
	// Deleting must release the overflow pages back to the free list.
	before := st.NumPages()
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	// Re-inserting an equal record must not grow the file.
	if _, err := h.Insert(big); err != nil {
		t.Fatal(err)
	}
	if st.NumPages() > before {
		t.Fatalf("overflow pages not recycled: %d > %d", st.NumPages(), before)
	}
}

func TestHeapUpdateTransitions(t *testing.T) {
	st, v, _ := tempWriter(t, Options{PageSize: 512})
	h := NewHeap(v, nil)
	rid, err := h.Insert([]byte("small"))
	if err != nil {
		t.Fatal(err)
	}
	// small -> huge (inline to overflow, RID stable)
	huge := bytes.Repeat([]byte("H"), 5000)
	if err := h.Update(rid, huge); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Read(rid); !bytes.Equal(got, huge) {
		t.Fatal("inline->overflow failed")
	}
	// huge -> small (overflow back to inline, chain freed)
	if err := h.Update(rid, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Read(rid); string(got) != "tiny" {
		t.Fatal("overflow->inline failed")
	}
	// Chain pages recycled: a fresh huge insert must reuse them.
	before := st.NumPages()
	if _, err := h.Insert(huge); err != nil {
		t.Fatal(err)
	}
	if st.NumPages() > before {
		t.Fatal("old overflow chain leaked")
	}
}

func TestHeapModelCheck(t *testing.T) {
	_, v, _ := tempWriter(t, Options{PageSize: 1024})
	h := NewHeap(v, nil)
	rng := rand.New(rand.NewSource(99))
	model := map[oid.RID][]byte{}
	var rids []oid.RID
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			data := make([]byte, rng.Intn(300))
			rng.Read(data)
			rid, err := h.Insert(data)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("step %d: RID %v reused while live", step, rid)
			}
			model[rid] = data
			rids = append(rids, rid)
		case op < 8 && len(model) > 0:
			rid := rids[rng.Intn(len(rids))]
			if _, live := model[rid]; !live {
				continue
			}
			data := make([]byte, rng.Intn(2000))
			rng.Read(data)
			if err := h.Update(rid, data); err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			model[rid] = data
		case len(model) > 0:
			rid := rids[rng.Intn(len(rids))]
			if _, live := model[rid]; !live {
				continue
			}
			if err := h.Delete(rid); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(model, rid)
		}
	}
	for rid, want := range model {
		got, err := h.Read(rid)
		if err != nil {
			t.Fatalf("final read %v: %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final mismatch at %v", rid)
		}
	}
	// Scan agrees with the model.
	seen := 0
	err := h.Scan(func(rid oid.RID, data []byte) (bool, error) {
		want, ok := model[rid]
		if !ok {
			t.Fatalf("scan found unmodelled %v", rid)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("scan mismatch at %v", rid)
		}
		seen++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Fatalf("scan saw %d of %d", seen, len(model))
	}
}

func TestHeapSpaceReuseAcrossReopen(t *testing.T) {
	st, v, path := tempWriter(t, Options{PageSize: 512})
	h := NewHeap(v, nil)
	var rids []oid.RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 50))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Free half the records, then reopen: the sweep should find the holes
	// instead of growing the file.
	for i := 0; i < len(rids); i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2 := NewHeap(st2.OpenWriter(nil), nil)
	before := st2.NumPages()
	for i := 0; i < 40; i++ {
		if _, err := h2.Insert(bytes.Repeat([]byte{0xAA}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if st2.NumPages() > before {
		t.Fatalf("sweep failed: file grew %d -> %d", before, st2.NumPages())
	}
}

type recordingTracker struct {
	mutated   map[oid.PageID]int
	allocated map[oid.PageID]bool
}

func (rt *recordingTracker) BeforeMutate(id oid.PageID, before []byte, wasDirty bool) {
	if rt.mutated == nil {
		rt.mutated = map[oid.PageID]int{}
	}
	rt.mutated[id]++
}

func (rt *recordingTracker) DidAllocate(id oid.PageID) {
	if rt.allocated == nil {
		rt.allocated = map[oid.PageID]bool{}
	}
	rt.allocated[id] = true
}

func (rt *recordingTracker) Tracked(id oid.PageID) bool {
	return rt.allocated[id] || rt.mutated[id] > 0
}

func TestTrackerSeesMutationsAndAllocations(t *testing.T) {
	st, _ := tempStore(t, Options{PageSize: 512})
	tr := &recordingTracker{}
	v := st.OpenWriter(tr)
	h := NewHeap(v, nil)
	rid, err := h.Insert([]byte("tracked"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.allocated) == 0 {
		t.Fatal("tracker missed allocation")
	}
	if tr.mutated[0] == 0 {
		t.Fatal("tracker missed superblock mutation")
	}
	// A Tracked page must be copied only once: the second insert touches
	// the same pages without growing the mutation counts unboundedly.
	if tr.mutated[0] != 1 {
		t.Fatalf("superblock before-image captured %d times", tr.mutated[0])
	}
	// A fresh untracked writer view (a new "transaction") still operates
	// on the same live pages.
	h2 := NewHeap(st.OpenWriter(nil), NewHeapState())
	if err := h2.Delete(rid); err != nil {
		t.Fatal(err)
	}
}

func TestCensus(t *testing.T) {
	_, v, _ := tempWriter(t, Options{PageSize: 512})
	h := NewHeap(v, nil)
	var rids []oid.RID
	for i := 0; i < 20; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 60))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// One big record forces overflow pages; one freed page.
	if _, err := h.Insert(bytes.Repeat([]byte("O"), 3000)); err != nil {
		t.Fatal(err)
	}
	p, err := v.Allocate(PageBTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Free(p.ID); err != nil {
		t.Fatal(err)
	}
	c, err := v.Census()
	if err != nil {
		t.Fatal(err)
	}
	if c.Super != 1 {
		t.Fatalf("super pages = %d", c.Super)
	}
	if c.Slotted == 0 || c.Overflow == 0 || c.Free != 1 {
		t.Fatalf("census = %+v", c)
	}
	if c.Records != 21 {
		t.Fatalf("records = %d", c.Records)
	}
	if c.SlottedLiveBytes < 20*60 {
		t.Fatalf("live bytes = %d", c.SlottedLiveBytes)
	}
	// Deleting half the records grows reusable space.
	before := c.SlottedFreeBytes
	for i := 0; i < 10; i++ {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := v.Census()
	if err != nil {
		t.Fatal(err)
	}
	if c2.SlottedFreeBytes <= before || c2.Records != 11 {
		t.Fatalf("census after deletes = %+v", c2)
	}
}

// TestNextIDLeaseOutlivesRollback: a lease taken by a transaction that
// rolls back stays with the store while the persisted counter goes back
// to its committed value; the next NextID draws on that lease, raises
// the counter over it again, and no id is handed out twice — nor after
// a reopen, which leases afresh from the persisted counter.
func TestNextIDLeaseOutlivesRollback(t *testing.T) {
	st, path := tempStore(t, Options{PageSize: 512})
	seen := map[uint64]bool{}
	next := func(v *TxView) uint64 {
		t.Helper()
		id := v.NextID(0)
		if seen[id] {
			t.Fatalf("id %d handed out twice", id)
		}
		seen[id] = true
		if c := v.Counter(0); c < id {
			t.Fatalf("id %d above the persisted counter %d", id, c)
		}
		return id
	}
	leases := func() uint64 { return st.Pool().Metrics().AllocLeases.Load() }

	// A committed transaction takes the first lease.
	v := st.OpenWriter(nil)
	next(v)
	v.Close()
	st.SealSuper()
	committed := append([]byte(nil), st.supPg.Data...)

	// A transaction runs past that lease into a second one, then rolls
	// back as the transaction layer does it: page 0's before-image is put
	// back and the superblock decoded from it again.
	v = st.OpenWriter(nil)
	for i := 0; i < leaseSize; i++ {
		next(v)
	}
	v.Close()
	if got := leases(); got != 2 {
		t.Fatalf("%d leases taken, want 2", got)
	}
	st.supPg.Restore(committed)
	if err := st.ReloadSuper(); err != nil {
		t.Fatal(err)
	}
	v = st.OpenWriter(nil)
	if got := v.Counter(0); got != leaseSize {
		t.Fatalf("rolled-back counter %d, want %d", got, leaseSize)
	}

	// The second lease outlived the rollback: the next id comes from it,
	// and the counter covers the lease again.
	if id := next(v); id != leaseSize+2 {
		t.Fatalf("first id after the rollback %d, want %d from the surviving lease", id, leaseSize+2)
	}
	if got := v.Counter(0); got != 2*leaseSize {
		t.Fatalf("counter %d after the rollback's next id, want %d", got, 2*leaseSize)
	}
	if got := leases(); got != 2 {
		t.Fatalf("%d leases taken, want the surviving one used", got)
	}
	for i := 0; i < leaseSize; i++ {
		next(v)
	}
	v.Close()

	// A reopen forgets the lease and starts past the persisted counter.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	next(st.OpenWriter(nil))
}
