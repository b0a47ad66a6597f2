package storage

// The pool's one budget and the writes that empty it: dirty pages count
// inside the capacity (the clean LRU gives way to them), a checkpoint
// falls due at a fixed share, and a flush writes each run of adjacent
// dirty pages with one call.

import (
	"errors"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
)

// budgetStore creates a 512-byte-page store on mem with pages pre-
// allocated, flushed clean pages, reopened with a 16-page pool, and
// returns it with a writer view.
func budgetStore(t *testing.T, fsys faultfs.FS, pages int) (*Store, *TxView) {
	t.Helper()
	st, err := Create("/budget.db", Options{PageSize: 512, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	v := st.OpenWriter(nil)
	for i := 0; i < pages; i++ {
		p, err := v.Allocate(PageSlotted)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SlottedInsert(p, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open("/budget.db", Options{FS: fsys, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.CloseNoFlush() })
	return st, st.OpenWriter(nil)
}

func TestPoolBudgetCountsDirtyPages(t *testing.T) {
	st, v := budgetStore(t, faultfs.NewMem(), 40)
	pl := st.Pool()
	m := obs.New()
	pl.SetMetrics(m)
	// Fill the LRU with clean pages.
	for id := oid.PageID(1); id <= 30; id++ {
		if _, err := pl.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned superblock is resident outside the LRU and not dirty.
	if total, dirty := pl.Resident(); total != 17 || dirty != 0 {
		t.Fatalf("clean fill: %d resident, %d dirty; want 16 + the superblock, 0", total, dirty)
	}
	// Dirty pages take the clean pages' room, not room of their own.
	for id, want := oid.PageID(1), 1; id <= 12; id, want = id+1, want+1 {
		p, err := pl.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		v.Touch(p)
		total, dirty := pl.Resident()
		if dirty != want || total != 17 {
			t.Fatalf("after dirtying %d pages: %d resident, %d dirty; want 17, %d", want, total, dirty, want)
		}
		if due := pl.DirtyDue(); due != (want >= 12) {
			t.Fatalf("DirtyDue with %d of 16 dirty = %v", want, due)
		}
		if got := m.DirtyPages.Load(); got != int64(want) {
			t.Fatalf("dirty-pages gauge %d, want %d", got, want)
		}
	}
	// An allocation is a dirty page too: it evicts a clean one.
	_, _, ev0 := poolCounts(pl)
	if _, err := v.Allocate(PageSlotted); err != nil {
		t.Fatal(err)
	}
	total, dirty := pl.Resident()
	_, _, ev1 := poolCounts(pl)
	// The allocation dirtied the superblock as well (nPages). Clean, it
	// sat pinned outside the LRU and outside the budget; dirty, it counts
	// like any dirty page — so the clean LRU gave up two pages for one
	// new resident.
	if dirty != 14 || total != 16 || ev1 != ev0+2 {
		t.Fatalf("after an allocation: %d resident, %d dirty, %d evictions; want 16, 14, 2", total, dirty, ev1-ev0)
	}
	// With automatic checkpoints off nothing relieves the pool: dirty
	// pages alone may exceed it, and then no clean page stays.
	for id := oid.PageID(13); id <= 30; id++ {
		p, err := pl.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		v.Touch(p)
	}
	if total, dirty := pl.Resident(); dirty != 32 || total != 32 {
		t.Fatalf("over budget: %d resident, %d dirty; want 32, 32", total, dirty)
	}
	// A flush turns them clean and trims the LRU back to the capacity.
	if err := st.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if total, dirty := pl.Resident(); dirty != 0 || total != 17 || pl.DirtyDue() {
		t.Fatalf("after the flush: %d resident, %d dirty, due %v", total, dirty, pl.DirtyDue())
	}
	if got := m.DirtyPages.Load(); got != 0 {
		t.Fatalf("dirty-pages gauge %d after the flush", got)
	}
}

// TestFlushWritesRuns: the dirty set goes out in page order, one write
// per run of adjacent pages (capped at maxRunPages), and what lands is
// what page-at-a-time writes would have put there.
func TestFlushWritesRuns(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem, faultfs.Plan{})
	st, v := budgetStore(t, inj, 200)
	pl := st.Pool()
	dirty := []oid.PageID{3, 4, 5, 9, 20, 21} // two runs and a single
	for id := oid.PageID(100); id < 100+maxRunPages+5; id++ {
		dirty = append(dirty, id) // one run longer than the cap: two writes
	}
	for _, id := range dirty {
		p, err := pl.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p = v.Touch(p)
		if _, err := SlottedInsert(p, []byte("flushed")); err != nil {
			t.Fatal(err)
		}
	}
	before := inj.Counts().Writes
	if err := pl.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := inj.Counts().Writes - before; got != 5 {
		t.Fatalf("%d dirty pages in 4 runs, one over the cap: %d writes, want 5", len(dirty), got)
	}
	if _, d := pl.Resident(); d != 0 {
		t.Fatalf("%d pages still dirty", d)
	}
	// Every page verifies and reads back from the file.
	if err := st.CloseNoFlush(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open("/budget.db", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseNoFlush()
	for _, id := range dirty {
		p, err := st2.Get(id)
		if err != nil {
			t.Fatalf("page %d after the flush: %v", id, err)
		}
		if got, err := SlottedRead(p, 1); err != nil || string(got) != "flushed" {
			t.Fatalf("page %d: %q, %v", id, got, err)
		}
	}
}

// TestFlushRunFailureKeepsTheRestDirty: a run that fails to write leaves
// its pages, and every later one, dirty — so a retry (or the WAL) still
// covers them — while the runs before it are clean.
func TestFlushRunFailureKeepsTheRestDirty(t *testing.T) {
	mem := faultfs.NewMem()
	st, _ := budgetStore(t, mem, 30)
	st.CloseNoFlush()

	inj := faultfs.NewInjector(mem, faultfs.Plan{TearWriteN: 2, TearBytes: 100})
	st, err := Open("/budget.db", Options{FS: inj, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseNoFlush()
	v := st.OpenWriter(nil)
	for _, id := range []oid.PageID{2, 3, 7, 8, 9, 15} {
		p, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		v.Touch(p)
	}
	if err := st.Pool().FlushDirty(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("flush with a torn second run: %v", err)
	}
	if _, dirty := st.Pool().Resident(); dirty != 4 {
		t.Fatalf("%d pages dirty after the first run landed and the second tore; want 4", dirty)
	}
	for _, p := range st.Pool().DirtyPages() {
		if p.ID == 2 || p.ID == 3 {
			t.Fatalf("page %d of the written run is still dirty", p.ID)
		}
	}
}

// TestReclaimSkipsWhenOldestPinUnmoved: with a reader holding the oldest
// pin, commits publish snapshots but reclaim nothing — and must not walk
// the table to find that out; once the pin goes, one pass drops them all.
func TestReclaimSkipsWhenOldestPinUnmoved(t *testing.T) {
	st, _ := budgetStore(t, faultfs.NewMem(), 20)
	pl := st.Pool()
	pin := pl.PinEpoch()
	for round := 0; round < 5; round++ {
		for id := oid.PageID(1); id <= 10; id++ {
			p, err := pl.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			pl.COW(p)
		}
		pl.AdvanceDurableTo(pl.AdvanceEpoch())
		if pl.reclaimed != pin {
			t.Fatalf("round %d: reclaimed at epoch %d with the oldest pin still at %d", round, pl.reclaimed, pin)
		}
	}
	if n := pl.SnapshotCount(); n != 50 {
		t.Fatalf("%d snapshots retained for the pinned reader, want 50", n)
	}
	pl.UnpinEpoch(pin)
	if n := pl.SnapshotCount(); n != 0 {
		t.Fatalf("%d snapshots left after the last pin went", n)
	}
	if pl.reclaimed != pl.DurableEpoch() {
		t.Fatalf("reclaimed at %d, durable epoch %d", pl.reclaimed, pl.DurableEpoch())
	}
}
