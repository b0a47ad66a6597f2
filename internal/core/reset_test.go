package core

import (
	"errors"
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

// TestRollbackResetsOnlyJoinedShards: a rolled-back attempt reverts
// pages only on the shards it had joined, so only their heap caches and
// id leases start over. A restart or an abort on shards {0,1} used to
// wipe shard 2's as well — a fresh lease and a free-space sweep from
// page 1 for every shard, on every descending-join restart.
func TestRollbackResetsOnlyJoinedShards(t *testing.T) {
	e := newShardedEngine(t, 3, Options{})
	ty := mustType(t, e, "T")
	var objs [3]oid.OID
	for s := range objs {
		objs[s], _ = createOn(t, e, ty, s)
	}
	heap := func(s int) *storage.HeapState { return e.takeHeapSpace(s) }
	leases := func(s int) uint64 { return e.c.Shards()[s].Metrics().AllocLeases.Load() }
	hs, ls := [3]*storage.HeapState{heap(0), heap(1), heap(2)}, [3]uint64{leases(0), leases(1), leases(2)}

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
	if heap(0) == hs[0] || heap(1) == hs[1] {
		t.Error("a rolled-back shard kept its heap cache")
	}
	if heap(2) != hs[2] {
		t.Error("shard 2 lost its heap cache to an abort on shards 0 and 1")
	}
	for s := range objs {
		createOn(t, e, ty, s)
	}
	if leases(0) == ls[0] || leases(1) == ls[1] {
		t.Errorf("rolled-back shards kept their leases: %d→%d, %d→%d", ls[0], leases(0), ls[1], leases(1))
	}
	if leases(2) != ls[2] {
		t.Errorf("shard 2 took %d new leases after an abort on shards 0 and 1", leases(2)-ls[2])
	}

	// A descending join whose try-lock fails — a writer is parked on
	// shard 0 — restarts: the attempt that is rolled back had joined shard
	// 1 only, and the rerun (shards 0 and 1 pre-locked) commits.
	hs, ls = [3]*storage.HeapState{heap(0), heap(1), heap(2)}, [3]uint64{leases(0), leases(1), leases(2)}
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
	if heap(1) == hs[1] {
		t.Error("the restarted attempt's shard kept its heap cache")
	}
	if heap(0) != hs[0] || heap(2) != hs[2] {
		t.Error("a restart reset shards its rolled-back attempt never joined")
	}
	createOn(t, e, ty, 2)
	if leases(2) != ls[2] {
		t.Errorf("shard 2 took %d new leases after a restart on shard 1", leases(2)-ls[2])
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
// fails is rolled back by the shard's commit pipeline (failFlights), not by the
// writer — the writer had already released the shard — and the reset
// hook runs there: the failed shard's heap cache and leases start over,
// the other shards keep theirs.
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

	heap := func(s int) *storage.HeapState { return e.takeHeapSpace(s) }
	leases := func(s int) uint64 { return e.c.Shards()[s].Metrics().AllocLeases.Load() }
	hs, ls := [3]*storage.HeapState{heap(0), heap(1), heap(2)}, [3]uint64{leases(0), leases(1), leases(2)}
	err := e.Write(func(tx *Tx) error {
		_, err := tx.NewVersion(objs[1])
		return err
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Write = %v, want the injected fsync failure", err)
	}
	if heap(1) == hs[1] {
		t.Error("the failed batch's shard kept its heap cache")
	}
	if heap(0) != hs[0] || heap(2) != hs[2] {
		t.Error("a batch failure on shard 1 reset another shard's heap cache")
	}
	for s := range objs {
		createOn(t, e, ty, s)
	}
	if leases(1) == ls[1] {
		t.Error("the failed batch's shard kept its lease")
	}
	if leases(0) != ls[0] || leases(2) != ls[2] {
		t.Errorf("shards 0 and 2 took %d and %d new leases after a batch failure on shard 1", leases(0)-ls[0], leases(2)-ls[2])
	}
}

// TestIDsUniqueAcrossAbortOnLeasingShard: an attempt that takes a lease
// and aborts loses the lease with its rollback; the ids handed out
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
