package ode

// What a View may see now that Views share one read snapshot between
// commits (internal/txn/cut.go, DESIGN.md §15.5): these tests race every
// kind of publication — single-shard commits through the group committer,
// with and without NoSync, cross-shard two-phase commits,
// compaction demotions, live Reshard flips — against readers that check
// the three things a shared snapshot could break.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapshotRace runs the race. The database holds nObjs objects whose
// Rev only grows; objects 0 and 1 are a pair kept at one Rev by a single
// Update (on different shards when there are several: a two-phase
// commit). Every reader asserts, on every View:
//
//	(i)   it sees at least the Rev acknowledged before the View began;
//	(ii)  the pair is at one Rev — a cross-shard Update is visible on
//	      all its shards or none;
//	(iii) no object's Rev is lower than this reader saw it before.
//
// Each extra (a Compact sweep, a resharder) runs alongside, once per
// acknowledged Update, until the writers are done.
func snapshotRace(t *testing.T, db *DB, updates int, extra ...func() error) {
	t.Helper()
	const nObjs, readers = 6, 3
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]Ptr[Part], nObjs)
	if db.Shards() > 1 {
		ptrs[0], ptrs[1] = crossShardPair(t, db, parts)
	}
	for i := range ptrs {
		if !ptrs[i].IsNil() {
			continue
		}
		if err := db.Update(func(tx *Tx) error {
			var err error
			ptrs[i], err = parts.Create(tx, &Part{Name: fmt.Sprint(i)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	acked := make([]atomic.Int64, nObjs)
	ticks := make([]chan struct{}, len(extra))
	for i := range ticks {
		ticks[i] = make(chan struct{}, 1)
	}
	// bump versions the objects to Rev rev in one Update: a new version
	// each, so chains grow and the delta tier has cold payloads to demote.
	bump := func(rev int, objs ...int) error {
		err := db.Update(func(tx *Tx) error {
			for _, i := range objs {
				v, err := ptrs[i].NewVersion(tx)
				if err != nil {
					return err
				}
				if err := v.Set(tx, &Part{Name: fmt.Sprint(i), Rev: rev, Data: make([]byte, 200)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			for _, i := range objs {
				acked[i].Store(int64(rev))
			}
			for _, tick := range ticks {
				select {
				case tick <- struct{}{}:
				default: // still busy with the last one
				}
			}
		}
		return err
	}

	var writers, others sync.WaitGroup
	stop := make(chan struct{})
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	writers.Add(2)
	go func() { // the pair
		defer writers.Done()
		for rev := 1; rev <= updates; rev++ {
			if err := bump(rev, 0, 1); err != nil {
				fail(fmt.Errorf("pair writer: %w", err))
				return
			}
		}
	}()
	go func() { // the singles
		defer writers.Done()
		for rev := 1; rev <= updates; rev++ {
			for i := 2; i < nObjs; i++ {
				if err := bump(rev, i); err != nil {
					fail(fmt.Errorf("single writer: %w", err))
					return
				}
			}
		}
	}()
	for i, fn := range extra {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				case <-ticks[i]:
				}
				if err := fn(); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		others.Add(1)
		go func() {
			defer others.Done()
			last := make([]int, nObjs)
			floor := make([]int, nObjs)
			for view := 0; ; view++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := range floor {
					floor[i] = int(acked[i].Load())
				}
				err := db.View(func(tx *Tx) error {
					for i, p := range ptrs {
						v, err := p.Deref(tx)
						if err != nil {
							return err
						}
						if v.Rev < floor[i] {
							return fmt.Errorf("object %d: Rev %d, but %d was acknowledged before the View began", i, v.Rev, floor[i])
						}
						if v.Rev < last[i] {
							return fmt.Errorf("object %d: Rev went backwards, %d after %d", i, v.Rev, last[i])
						}
						last[i] = v.Rev
					}
					if last[0] != last[1] {
						return fmt.Errorf("torn cross-shard Update: pair at Rev %d and %d", last[0], last[1])
					}
					return nil
				})
				if err != nil {
					fail(fmt.Errorf("reader %d, view %d: %w", r, view, err))
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	others.Wait()
	if t.Failed() {
		return
	}
	// At rest: one more View sees every final Rev, and nothing leaked.
	if err := db.View(func(tx *Tx) error {
		for i, p := range ptrs {
			v, err := p.Deref(tx)
			if err != nil {
				return err
			}
			if v.Rev != updates {
				return fmt.Errorf("object %d at Rev %d after %d updates", i, v.Rev, updates)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().ActiveReaders; got != 0 {
		t.Errorf("ActiveReaders = %d at rest", got)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// atGOMAXPROCS runs fn as a subtest at each processor count: one
// processor interleaves readers and publishers only at preemption
// points, two run them truly concurrently.
func atGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// raceUpdates is how many Revs a race runs to: commits that fsync cost
// milliseconds each, so those runs are shorter.
func raceUpdates(nosync bool) int {
	updates := 60
	if !nosync {
		updates /= 4
	}
	if testing.Short() {
		updates /= 3
	}
	return updates
}

func TestViewSeesAckedCommit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, nosync := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/nosync=%v", shards, nosync), func(t *testing.T) {
				updates := raceUpdates(nosync)
				atGOMAXPROCS(t, func(t *testing.T) {
					// Inline demotion runs inside the writers' own Updates;
					// the explicit Compact loop below adds sweep commits,
					// which publish without changing any content.
					db, _ := openShardedDB(t, shards, &Options{
						NoSync: nosync, DeltaTier: true, AnchorInterval: 4,
					})
					// A live reshard at every starting count: the one-shard
					// database splits like any other.
					target := 4
					snapshotRace(t, db, updates, func() error {
						if _, err := db.Compact(); err != nil {
							return fmt.Errorf("compact: %w", err)
						}
						return nil
					}, func() error {
						target = 12 - target // 8, 4, 8, ...
						if err := db.Reshard(target); err != nil {
							return fmt.Errorf("reshard to %d: %w", target, err)
						}
						return nil
					})
				})
			})
		}
	}
}

// TestShardedViewAtomicCrossShard asserts a View reads one atomic
// cross-shard snapshot: a 2PC transaction keeping two objects on
// different shards at the same revision must never be seen half-applied
// by a concurrent reader — with single-shard commits retiring and
// rebuilding the shared snapshot all the while, with and without NoSync.
func TestShardedViewAtomicCrossShard(t *testing.T) {
	for _, nosync := range []bool{true, false} {
		t.Run(fmt.Sprintf("nosync=%v", nosync), func(t *testing.T) {
			atGOMAXPROCS(t, func(t *testing.T) {
				db, _ := openShardedDB(t, 2, &Options{NoSync: nosync})
				snapshotRace(t, db, 2*raceUpdates(nosync))
			})
		})
	}
}

// A shrinking Reshard neither waits for nor disturbs readers still on
// the snapshot taken before it: they finish on the old map and the old
// placement, and the next View reads the new one.
func TestReshardShrinkWithReadersOnOldSnapshot(t *testing.T) {
	db, _ := openShardedDB(t, 4, &Options{NoSync: true})
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	const nObjs = 40
	ptrs := make([]Ptr[Part], nObjs)
	for i := range ptrs {
		if err := db.Update(func(tx *Tx) error {
			var err error
			ptrs[i], err = parts.Create(tx, &Part{Name: fmt.Sprint(i), Rev: 1})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(tx *Tx, from, rev int) error {
		for i := from; i < nObjs; i++ {
			v, err := ptrs[i].Deref(tx)
			if err != nil {
				return fmt.Errorf("object %d: %w", i, err)
			}
			if v.Name != fmt.Sprint(i) || v.Rev != rev {
				return fmt.Errorf("object %d read as %q Rev %d, want Rev %d", i, v.Name, v.Rev, rev)
			}
		}
		return nil
	}
	const readers = 3
	var inside sync.WaitGroup
	resharded := make(chan struct{})
	done := make(chan error, readers)
	inside.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			done <- db.View(func(tx *Tx) error {
				// Half before the flips, half after: both from the snapshot
				// this View began on.
				if err := readAll(tx, nObjs/2, 1); err != nil {
					return err
				}
				inside.Done()
				<-resharded
				return readAll(tx, 0, 1)
			})
		}()
	}
	inside.Wait()
	reshardErr := make(chan error, 1)
	go func() {
		err := db.Reshard(2)
		if err == nil {
			// And a commit the old snapshot must not show.
			err = db.Update(func(tx *Tx) error {
				for i, p := range ptrs {
					if err := p.Set(tx, &Part{Name: fmt.Sprint(i), Rev: 2}); err != nil {
						return err
					}
				}
				return nil
			})
		}
		reshardErr <- err
	}()
	select {
	case err := <-reshardErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Reshard(4→2) did not complete with readers holding the pre-flip snapshot")
	}
	close(resharded)
	for r := 0; r < readers; r++ {
		if err := <-done; err != nil {
			t.Errorf("reader on the pre-flip snapshot: %v", err)
		}
	}
	if got := db.Shards(); got != 2 {
		t.Fatalf("%d logical shards after Reshard(2)", got)
	}
	if err := db.View(func(tx *Tx) error { return readAll(tx, 0, 2) }); err != nil {
		t.Fatalf("after the reshard: %v", err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// Close with an idle shared snapshot returns promptly and later Views
// are refused; Close with a View in flight waits for it.
func TestCloseWithSharedSnapshot(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _ := openShardedDB(t, shards, &Options{NoSync: true})
			view := func(fn func()) error {
				return db.View(func(tx *Tx) error {
					fn()
					_, err := tx.Exists(OID(1))
					return err
				})
			}
			if err := view(func() {}); err != nil {
				t.Fatal(err)
			}
			inside, finish := make(chan struct{}), make(chan struct{})
			viewErr := make(chan error, 1)
			go func() { viewErr <- view(func() { close(inside); <-finish }) }()
			<-inside
			closed := make(chan error, 1)
			go func() { closed <- db.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) with a View in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(finish)
			if err := <-viewErr; err != nil {
				t.Errorf("View in flight across Close: %v", err)
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close did not return after the last View ended")
			}
			if err := view(func() {}); !errors.Is(err, ErrClosed) {
				t.Fatalf("View after Close = %v, want ErrClosed", err)
			}
		})
	}
}
