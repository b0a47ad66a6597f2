package core

import (
	"bytes"
	"errors"
	"maps"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

func newShardedEngine(t testing.TB, shards int, opts Options) *Engine {
	t.Helper()
	c, err := txn.OpenCoordinator(t.TempDir(), txn.Options{Shards: shards, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	e, err := NewSharded(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// createOn commits one new object allocated on shard s.
func createOn(t *testing.T, e *Engine, ty oid.TypeID, s int) (o oid.OID, v oid.VID) {
	t.Helper()
	w(t, e, func(tx *Tx) (err error) {
		tx.lastAlloc = s
		o, v, err = tx.Create(ty, []byte("payload"))
		return err
	})
	if got := storage.SlotOf(uint64(o)); got != s {
		t.Fatalf("object %v born on shard %d, want %d", o, got, s)
	}
	return o, v
}

// heapOf is shard s's heap free-space cache, which its store keeps.
func heapOf(e *Engine, s int) *storage.HeapState {
	return e.c.Shards()[s].Store().HeapSpace()
}

// knownHeap is what shard s's heap cache knows.
func knownHeap(e *Engine, s int) map[oid.PageID]int {
	known, _ := heapOf(e, s).Known()
	return known
}

// checkHeapAtRest holds shard s's heap cache, with no writer running,
// to the pages it names: each is a slotted page inside the file, and its
// entry is the page's free space. A rollback that left the cache
// unrepaired would leave the rolled-back insert's smaller free space on
// a restored page, or name a page the rollback dropped from the file.
func checkHeapAtRest(t *testing.T, e *Engine, s int) {
	t.Helper()
	st := e.c.Shards()[s].Store()
	for id, free := range knownHeap(e, s) {
		if uint64(id) >= st.NumPages() {
			t.Errorf("shard %d: the cache names page %d, past the file's %d pages", s, id, st.NumPages())
			continue
		}
		p, err := st.Get(id)
		if err != nil {
			t.Errorf("shard %d: page %d: %v", s, id, err)
			continue
		}
		if p.Type() != storage.PageSlotted {
			t.Errorf("shard %d: the cache names page %d of type %v", s, id, p.Type())
		} else if got := storage.SlottedFreeSpace(p); got != free {
			t.Errorf("shard %d: the cache holds %d free on page %d, the page has %d", s, free, id, got)
		}
	}
}

// TestRollbackResetsOnlyJoinedShards: a rolled-back attempt reverts
// pages only on the shards it had joined, so only their heap caches are
// repaired. A restart or an abort on shards {0,1} used to wipe shard
// 2's as well — a fresh lease and a free-space sweep from page 1 for
// every shard, on every descending-join restart. A joined shard's cache
// survives the rollback, repaired (checkHeapAtRest); the others' are
// untouched, and their shards take no new lease.
func TestRollbackResetsOnlyJoinedShards(t *testing.T) {
	e := newShardedEngine(t, 3, Options{})
	ty := mustType(t, e, "T")
	var objs [3]oid.OID
	for s := range objs {
		objs[s], _ = createOn(t, e, ty, s)
	}
	heap := func(s int) *storage.HeapState { return heapOf(e, s) }
	leases := func(s int) uint64 { return e.c.Shards()[s].Metrics().AllocLeases.Load() }
	hs, ls := [3]*storage.HeapState{heap(0), heap(1), heap(2)}, [3]uint64{leases(0), leases(1), leases(2)}
	known2 := knownHeap(e, 2)

	// An abort that had joined shards 0 and 1.
	boom := errors.New("boom")
	err := e.Write(func(tx *Tx) error {
		for _, o := range objs[:2] {
			if _, err := tx.NewVersion(o); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want boom", err)
	}
	checkHeapAtRest(t, e, 0)
	checkHeapAtRest(t, e, 1)
	if heap(0) != hs[0] || heap(1) != hs[1] {
		t.Error("a rolled-back shard lost its heap cache")
	}
	if heap(2) != hs[2] || !maps.Equal(knownHeap(e, 2), known2) {
		t.Error("shard 2's heap cache changed with an abort on shards 0 and 1")
	}
	for s := range objs {
		createOn(t, e, ty, s)
	}
	if leases(2) != ls[2] {
		t.Errorf("shard 2 took %d new leases after an abort on shards 0 and 1", leases(2)-ls[2])
	}

	// A descending join whose try-lock fails — a writer is parked on
	// shard 0 — restarts: the attempt that is rolled back had joined shard
	// 1 only, and the rerun (shards 0 and 1 pre-locked) commits.
	ls = [3]uint64{leases(0), leases(1), leases(2)}
	known2 = knownHeap(e, 2)
	release := holdShardOf(t, e, objs[0])
	runs := 0
	done := make(chan error, 1)
	go func() {
		done <- e.Write(func(tx *Tx) error {
			runs++
			if _, err := tx.NewVersion(objs[1]); err != nil {
				return err
			}
			_, err := tx.NewVersion(objs[0])
			return err
		})
	}()
	waitRestarts(t, e, 1)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("closure ran %d times, want 2 (a contended descending join restarts)", runs)
	}
	checkHeapAtRest(t, e, 1)
	if heap(1) != hs[1] {
		t.Error("the restarted attempt's shard lost its heap cache")
	}
	if heap(0) != hs[0] || heap(2) != hs[2] || !maps.Equal(knownHeap(e, 2), known2) {
		t.Error("a restart reset shards its rolled-back attempt never joined")
	}
	createOn(t, e, ty, 2)
	if leases(2) != ls[2] {
		t.Errorf("shard 2 took %d new leases after a restart on shard 1", leases(2)-ls[2])
	}
}

// TestRestartKeepsHeapSweep: after a restart rolls an attempt back on
// a shard, the rerun's insert into that shard's heap carries on where
// the free-space sweep had got to; it reads no page the sweep had
// already passed. The sweep used to start over from page 1 after every
// rollback.
func TestRestartKeepsHeapSweep(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Engine, *txn.Coordinator) {
		c, err := txn.OpenCoordinator(dir, txn.Options{Shards: 2, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewSharded(c, Options{})
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		return e, c
	}
	// Three records a page on shard 1, so its file is full pages. After
	// a reopen the heap cache knows none of them: every insert that fills
	// a page sends the next to the sweep, which passes 16 pages a time.
	e, c := open()
	ty := mustType(t, e, "T")
	o0, _ := createOn(t, e, ty, 0)
	big := bytes.Repeat([]byte("x"), 1200)
	create := func() (o oid.OID) {
		w(t, e, func(tx *Tx) (err error) {
			tx.lastAlloc = 1
			o, _, err = tx.Create(ty, big)
			return err
		})
		return o
	}
	for i := 0; i < 300; i++ {
		create()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	e, c = open()
	defer c.Close()
	var o1 oid.OID
	for i := 0; i < 100; i++ {
		if o1 = create(); func() bool { _, at := heapOf(e, 1).Known(); return at > 40 }() {
			break
		}
	}
	_, before := heapOf(e, 1).Known()
	if before <= 40 || uint64(before) >= e.c.Shards()[1].Store().NumPages() {
		t.Fatalf("the sweep is at page %d of %d; the test needs it past page 40 and short of the end", before, e.c.Shards()[1].Store().NumPages())
	}
	release := holdShardOf(t, e, o0)
	done := make(chan error, 1)
	go func() {
		done <- e.Write(func(tx *Tx) error {
			if _, err := tx.NewVersion(o1); err != nil {
				return err
			}
			_, err := tx.NewVersion(o0)
			return err
		})
	}()
	waitRestarts(t, e, 1)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkHeapAtRest(t, e, 1)
	if _, after := heapOf(e, 1).Known(); after < before {
		t.Errorf("the sweep went back from page %d to %d after the restart", before, after)
	}
}

// holdShardOf parks an engine write holding the writer mutex of the
// shard o lives on (it reads o, which joins the shard) until the
// returned release is called.
func holdShardOf(t *testing.T, e *Engine, o oid.OID) (release func()) {
	t.Helper()
	held, park, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- e.Write(func(tx *Tx) error {
			if _, err := tx.Latest(o); err != nil {
				return err
			}
			close(held)
			<-park
			return nil
		})
	}()
	select {
	case <-held:
	case err := <-done:
		t.Fatalf("holder: %v", err)
	}
	return func() {
		close(park)
		if err := <-done; err != nil {
			t.Errorf("holder: %v", err)
		}
	}
}

// waitRestarts waits until the coordinator has counted n join-order
// restarts.
func waitRestarts(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.c.Metrics().RestartsJoinOrder.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d join-order restarts", n)
		}
	}
}

// TestBatchFailureResetsOnlyItsShard: a group-commit batch whose fsync
// fails is rolled back by the shard's commit pipeline (failFlights), not
// by the writer — the writer had already released the shard — and the
// repair runs there: the failed shard's heap cache is repaired
// (checkHeapAtRest), the other shards keep their caches and leases.
func TestBatchFailureResetsOnlyItsShard(t *testing.T) {
	open := func(fsys faultfs.FS) (*Engine, oid.TypeID, [3]oid.OID) {
		c, err := txn.OpenCoordinator("db", txn.Options{Shards: 3, CheckpointBytes: -1, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		e, err := NewSharded(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ty := mustType(t, e, "T")
		var objs [3]oid.OID
		for s := range objs {
			objs[s], _ = createOn(t, e, ty, s)
		}
		return e, ty, objs
	}
	// Dry run: count the fsyncs the setup issues (one writer, no
	// background checkpoints, so the count is exact); the live run fails
	// the next one, the commit of a new version on shard 1.
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	open(dry)
	e, ty, objs := open(faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{FailSyncN: dry.Counts().Syncs + 1}))

	heap := func(s int) *storage.HeapState { return heapOf(e, s) }
	leases := func(s int) uint64 { return e.c.Shards()[s].Metrics().AllocLeases.Load() }
	hs, ls := [3]*storage.HeapState{heap(0), heap(1), heap(2)}, [3]uint64{leases(0), leases(1), leases(2)}
	known0, known2 := knownHeap(e, 0), knownHeap(e, 2)
	err := e.Write(func(tx *Tx) error {
		_, err := tx.NewVersion(objs[1])
		return err
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Write = %v, want the injected fsync failure", err)
	}
	checkHeapAtRest(t, e, 1)
	if heap(1) != hs[1] {
		t.Error("the failed batch's shard lost its heap cache")
	}
	if heap(0) != hs[0] || heap(2) != hs[2] || !maps.Equal(knownHeap(e, 0), known0) || !maps.Equal(knownHeap(e, 2), known2) {
		t.Error("a batch failure on shard 1 changed another shard's heap cache")
	}
	for s := range objs {
		createOn(t, e, ty, s)
	}
	if leases(0) != ls[0] || leases(2) != ls[2] {
		t.Errorf("shards 0 and 2 took %d and %d new leases after a batch failure on shard 1", leases(0)-ls[0], leases(2)-ls[2])
	}
}

// TestIDsUniqueAcrossAbortOnLeasingShard: an attempt that takes a lease
// and aborts keeps the lease, which outlives the rollback, and NextID
// covers the persisted counter again on its next id; the ids handed out
// afterwards never repeat a committed one.
func TestIDsUniqueAcrossAbortOnLeasingShard(t *testing.T) {
	e := newShardedEngine(t, 3, Options{})
	ty := mustType(t, e, "T")
	boom := errors.New("boom")
	oids, vids := map[oid.OID]bool{}, map[oid.VID]bool{}
	for round := 0; round < 6; round++ {
		err := e.Write(func(tx *Tx) error {
			tx.lastAlloc = 2
			for i := 0; i < 10+round*20; i++ { // some rounds run past a lease
				if _, _, err := tx.Create(ty, []byte("doomed")); err != nil {
					return err
				}
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Write = %v, want boom", err)
		}
		for i := 0; i < 30; i++ {
			o, v := createOn(t, e, ty, 2)
			if oids[o] || vids[v] {
				t.Fatalf("round %d: id reissued: %v / %v", round, o, v)
			}
			oids[o], vids[v] = true, true
		}
	}
	if err := e.Read(func(tx *Tx) error { return tx.CheckAll() }); err != nil {
		t.Fatal(err)
	}
}
