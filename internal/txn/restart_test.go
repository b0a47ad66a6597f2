package txn

import (
	"testing"
	"time"

	"ode/internal/oid"
	"ode/internal/storage"
)

// holdShard parks a write transaction holding shard s's writer mutex
// until the returned release is called.
func holdShard(t *testing.T, c *Coordinator, s int) (release func()) {
	t.Helper()
	held, park, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- c.Write(func(w *WriteTx) error {
			if _, err := w.Join(s); err != nil {
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
		t.Fatalf("holder of shard %d: %v", s, err)
	}
	return func() {
		close(park)
		if err := <-done; err != nil {
			t.Errorf("holder of shard %d: %v", s, err)
		}
	}
}

// waitFor polls cond until it holds, failing the test after a while.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDescendingJoinUncontendedOneRun: a join below a held shard whose
// mutex is free takes it by try-lock and the transaction commits in one
// run.
func TestDescendingJoinUncontendedOneRun(t *testing.T) {
	c, err := OpenCoordinator(t.TempDir(), Options{Shards: 3, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runs := 0
	if err := c.Write(func(w *WriteTx) error {
		runs++
		return insertOn("down", 2, 0)(w)
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	cm := c.Metrics()
	if got := cm.TryLockJoins.Load(); got != 1 {
		t.Errorf("TryLockJoins = %d, want 1", got)
	}
	if got := cm.RestartsJoinOrder.Load() + cm.RestartsRouting.Load(); got != 0 {
		t.Errorf("%d restarts, want 0", got)
	}
}

// TestRerunLocksOnlyAskedShards: a rerun after a lost try-lock holds
// the shards its attempt held plus the one it wanted — here 0 and 2 —
// so while it is parked a writer on shard 1 still gets through.
func TestRerunLocksOnlyAskedShards(t *testing.T) {
	c, err := OpenCoordinator(t.TempDir(), Options{Shards: 3, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release := holdShard(t, c, 0)
	parked, unpark, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	runs := 0
	go func() {
		done <- c.Write(func(w *WriteTx) error {
			runs++
			if err := insertOn("down", 2, 0)(w); err != nil {
				return err
			}
			if runs == 2 {
				close(parked)
				<-unpark
			}
			return nil
		})
	}()
	waitFor(t, "the join-order restart", func() bool { return c.Metrics().RestartsJoinOrder.Load() == 1 })
	release()
	<-parked

	other := make(chan error, 1)
	go func() {
		other <- cwriteH(c, 1, func(h *storage.Heap) error { _, err := h.Insert([]byte("side")); return err })
	}()
	select {
	case err := <-other:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a write to shard 1 blocked behind a rerun that never asked for shard 1")
		defer func() { <-other }()
	}
	close(unpark)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times, want 2", runs)
	}
}

// TestSwallowedRoutingRestartReruns is the regression for a routing
// restart that was an ordinary error: a closure that ignored it
// committed its attempt without the write that failed. A concurrent
// transaction on shard 1 alone commits a shard-map flip while the
// closure holds shard 0; the closure's Join(1) must end the attempt
// whatever the closure does with errors — or with the panic that ends
// it — and the rerun commits both writes once.
func TestSwallowedRoutingRestartReruns(t *testing.T) {
	t.Run("error dropped", func(t *testing.T) { testSwallowedRoutingRestart(t, func(f func()) { f() }) })
	t.Run("panic recovered", func(t *testing.T) {
		testSwallowedRoutingRestart(t, func(f func()) {
			defer func() { recover() }()
			f()
		})
	})
}

func testSwallowedRoutingRestart(t *testing.T, swallow func(func())) {
	c, err := OpenCoordinator(t.TempDir(), Options{Shards: 2, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joined, flipped, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	runs := 0
	var r0, r1 oid.RID
	go func() {
		done <- c.Write(func(w *WriteTx) error {
			runs++
			r1 = oid.RID{}
			v0, err := w.Join(0)
			if err != nil {
				return err
			}
			if r0, err = storage.NewHeap(v0, nil).Insert([]byte("zero")); err != nil {
				return err
			}
			if runs == 1 {
				close(joined)
				<-flipped
			}
			swallow(func() {
				if v1, err := w.Join(1); err == nil { // an error here is dropped
					r1, _ = storage.NewHeap(v1, nil).Insert([]byte("one"))
				}
			})
			return nil
		})
	}()
	<-joined
	lo := storage.SlotBase(1) + 1<<40
	if err := c.Write(func(w *WriteTx) error {
		if _, err := w.Join(1); err != nil {
			return err
		}
		w.SetShardMap(w.Map().Assign(lo, lo+1<<20, 1))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(flipped)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times, want 2 (the routing change must restart it)", runs)
	}
	if got := c.Metrics().RestartsRouting.Load(); got != 1 {
		t.Errorf("RestartsRouting = %d, want 1", got)
	}
	if r1 == (oid.RID{}) {
		t.Fatal("the rerun did not write shard 1")
	}
	for s, want := range map[int]struct {
		rid oid.RID
		s   string
	}{0: {r0, "zero"}, 1: {r1, "one"}} {
		if err := creadH(c, s, func(h *storage.Heap) error {
			got, err := h.Read(want.rid)
			if err == nil && string(got) != want.s {
				t.Errorf("shard %d holds %q, want %q", s, got, want.s)
			}
			return err
		}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	var n int
	if err := creadH(c, 0, func(h *storage.Heap) error {
		return h.Scan(func(oid.RID, []byte) (bool, error) { n++; return true, nil })
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("shard 0 holds %d records, want 1 (the write commits once)", n)
	}
}
