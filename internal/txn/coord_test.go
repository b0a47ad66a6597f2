package txn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/oid"
	"ode/internal/storage"
)

// cwriteH inserts into shard s through a coordinated write transaction.
func cwriteH(c *Coordinator, s int, fn func(h *storage.Heap) error) error {
	return c.Write(func(w *WriteTx) error {
		v, err := w.Join(s)
		if err != nil {
			return err
		}
		return fn(storage.NewHeap(v, nil))
	})
}

// creadH reads shard s through a coordinated read transaction.
func creadH(c *Coordinator, s int, fn func(h *storage.Heap) error) error {
	return c.Read(func(r *ReadTx) error {
		return fn(storage.NewHeap(r.View(s), nil))
	})
}

// exists reports which of names dir holds.
func exists(t *testing.T, dir string, names ...string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, f := range names {
		_, err := os.Stat(filepath.Join(dir, f))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		out[f] = err == nil
	}
	return out
}

// One shard is the N=1 case of the one layout: the same files four
// shards would have, one of each.
func TestCoordinatorOneShardLayout(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 1, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := exists(t, dir, ShardsFileName, CoordWALFileName, ShardDataFileName(0), ShardWALFileName(0), DataFileName, WALFileName)
	for f, want := range map[string]bool{
		ShardsFileName: true, CoordWALFileName: true, ShardDataFileName(0): true, ShardWALFileName(0): true,
		DataFileName: false, WALFileName: false,
	} {
		if got[f] != want {
			t.Errorf("%s present = %v, want %v", f, got[f], want)
		}
	}
	if st, err := ReadShardsState(nil, dir); err != nil || st.Created != 1 || st.Phys != 1 || st.Map.N() != 1 {
		t.Fatalf("shards.ode: %+v, %v", st, err)
	}
}

// A directory a standalone Manager wrote — what every pre-shard release
// wrote — is adopted in place: shards.ode and coord.ode appear beside
// it, its own two files stay shard 0 under their names, and a
// standalone Manager can still open them afterwards.
func TestCoordinatorAdoptsLegacyDirectory(t *testing.T) {
	dir := t.TempDir()
	sopts := Options{Storage: storage.Options{PageSize: 512}}
	m, err := Create(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	var rid oid.RID
	if err := writeH(m, func(h *storage.Heap) error {
		var err error
		rid, err = h.Insert([]byte("legacy"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, DataFileName))
	if err != nil {
		t.Fatal(err)
	}
	readBack := func(h *storage.Heap) error {
		got, err := h.Read(rid)
		if err == nil && string(got) != "legacy" {
			err = fmt.Errorf("payload %q", got)
		}
		return err
	}
	for round := 0; round < 2; round++ { // adopt, then reopen adopted
		c, err := OpenCoordinator(dir, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if c.N() != 1 || c.NumShards() != 1 {
			t.Fatalf("round %d: %d logical / %d physical shards, want 1", round, c.N(), c.NumShards())
		}
		if err := creadH(c, 0, readBack); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		got := exists(t, dir, ShardsFileName, CoordWALFileName, DataFileName, WALFileName, ShardDataFileName(0), ShardWALFileName(0))
		if !got[ShardsFileName] || !got[CoordWALFileName] || !got[DataFileName] || !got[WALFileName] ||
			got[ShardDataFileName(0)] || got[ShardWALFileName(0)] {
			t.Fatalf("round %d: file set %v", round, got)
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, DataFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("adoption rewrote data.ode")
	}
	if m, err = Open(dir, sopts); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := readH(m, readBack); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorShardedLayoutAndReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 4, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	rids := map[int]oid.RID{}
	for s := 0; s < 4; s++ {
		s := s
		if err := cwriteH(c, s, func(h *storage.Heap) error {
			var err error
			rids[s], err = h.Insert([]byte(fmt.Sprintf("shard-%d", s)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Commits != 4 {
		t.Fatalf("commits = %d, want 4", st.Commits)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := ReadShardsState(nil, dir); err != nil || st.Map.N() != 4 {
		t.Fatalf("shards meta: %+v, %v", st, err)
	}
	for s := 0; s < 4; s++ {
		for _, f := range []string{ShardDataFileName(s), ShardWALFileName(s)} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Fatalf("missing %s: %v", f, err)
			}
		}
	}
	// Reopen adopting the layout; data must be on its shard.
	c2, err := OpenCoordinator(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.N() != 4 {
		t.Fatalf("adopted %d shards, want 4", c2.N())
	}
	for s := 0; s < 4; s++ {
		if err := creadH(c2, s, func(h *storage.Heap) error {
			got, err := h.Read(rids[s])
			if err == nil && string(got) != fmt.Sprintf("shard-%d", s) {
				err = fmt.Errorf("payload %q", got)
			}
			return err
		}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}

func TestCoordinatorLayoutErrors(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 4, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// A shard-count mismatch must be rejected, not silently re-sharded.
	if _, err := OpenCoordinator(dir, Options{Shards: 2, Storage: storage.Options{PageSize: 512}}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mismatched count: %v", err)
	}
	// A directory claiming both layouts is corrupt: fail loudly.
	if err := os.WriteFile(filepath.Join(dir, DataFileName), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCoordinator(dir, Options{Storage: storage.Options{PageSize: 512}}); !errors.Is(err, ErrMixedLayout) {
		t.Fatalf("mixed layout: %v", err)
	}

	// And the converse mismatch: a legacy directory with Shards>1.
	dir2 := t.TempDir()
	m, err := Create(dir2, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCoordinator(dir2, Options{Shards: 4, Storage: storage.Options{PageSize: 512}}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("legacy dir with Shards=4: %v", err)
	}
}

func TestCoordinatorCrossShardCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 3, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	var r0, r2 oid.RID
	// One transaction spanning shards 0 and 2 (ascending joins).
	if err := c.Write(func(w *WriteTx) error {
		v0, err := w.Join(0)
		if err != nil {
			return err
		}
		if r0, err = storage.NewHeap(v0, nil).Insert([]byte("cross-0")); err != nil {
			return err
		}
		v2, err := w.Join(2)
		if err != nil {
			return err
		}
		r2, err = storage.NewHeap(v2, nil).Insert([]byte("cross-2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// An aborted cross-shard transaction must leave no trace on any
	// shard.
	boom := errors.New("boom")
	var a1 oid.RID
	err = c.Write(func(w *WriteTx) error {
		v1, err := w.Join(1)
		if err != nil {
			return err
		}
		if a1, err = storage.NewHeap(v1, nil).Insert([]byte("aborted-1")); err != nil {
			return err
		}
		v2, err := w.Join(2)
		if err != nil {
			return err
		}
		if _, err := storage.NewHeap(v2, nil).Insert([]byte("aborted-2")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("abort: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCoordinator(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check := func(s int, rid oid.RID, want string) {
		t.Helper()
		if err := creadH(c2, s, func(h *storage.Heap) error {
			got, err := h.Read(rid)
			if err == nil && string(got) != want {
				err = fmt.Errorf("payload %q", got)
			}
			return err
		}); err != nil {
			t.Fatalf("shard %d %s: %v", s, want, err)
		}
	}
	check(0, r0, "cross-0")
	check(2, r2, "cross-2")
	if err := creadH(c2, 1, func(h *storage.Heap) error {
		if got, err := h.Read(a1); err == nil {
			return fmt.Errorf("aborted insert resurrected: %q", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorCrossOrderRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 3, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A writer parked on shard 0 makes the descending join's try-lock
	// fail; the rerun pre-locks shards 0 and 2 and waits for it.
	release := holdShard(t, c, 0)
	runs := 0
	var rHigh, rLow oid.RID
	done := make(chan error, 1)
	go func() {
		done <- c.Write(func(w *WriteTx) error {
			runs++
			v2, err := w.Join(2)
			if err != nil {
				return err
			}
			if rHigh, err = storage.NewHeap(v2, nil).Insert([]byte("high")); err != nil {
				return err
			}
			v0, err := w.Join(0)
			if err != nil {
				return err
			}
			rLow, err = storage.NewHeap(v0, nil).Insert([]byte("low"))
			return err
		})
	}()
	waitFor(t, "the join-order restart", func() bool { return c.Metrics().RestartsJoinOrder.Load() == 1 })
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times, want 2 (initial + restart)", runs)
	}
	// The first run's insert on shard 2 was rolled back with the
	// restart; only the rerun's effects exist.
	check := func(s int, rid oid.RID, want string) {
		t.Helper()
		if err := creadH(c, s, func(h *storage.Heap) error {
			got, err := h.Read(rid)
			if err == nil && string(got) != want {
				err = fmt.Errorf("payload %q", got)
			}
			return err
		}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	check(2, rHigh, "high")
	check(0, rLow, "low")
}

func TestCoordinatorWriteViewSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 2, Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var r1 oid.RID
	if err := cwriteH(c, 1, func(h *storage.Heap) error {
		var err error
		r1, err = h.Insert([]byte("committed"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A write transaction on shard 0 can peek shard 1's committed state
	// without joining it — and the peek stays a snapshot.
	if err := c.Write(func(w *WriteTx) error {
		if _, err := w.Join(0); err != nil {
			return err
		}
		v1, err := w.View(1)
		if err != nil {
			return err
		}
		if w.Joined(1) {
			return errors.New("View must not join")
		}
		got, err := storage.NewHeap(v1, nil).Read(r1)
		if err != nil {
			return err
		}
		if string(got) != "committed" {
			return fmt.Errorf("peek read %q", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorCheckpointResetsWALs(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(dir, Options{Shards: 2, Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		if err := c.Write(func(w *WriteTx) error {
			for s := 0; s < 2; s++ {
				v, err := w.Join(s)
				if err != nil {
					return err
				}
				if _, err := storage.NewHeap(v, nil).Insert([]byte(fmt.Sprintf("ckpt-%d-%d", i, s))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	grown := c.Stats().WALBytes
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.WALBytes >= grown {
		t.Fatalf("checkpoint did not shrink WALs: %d -> %d", grown, st.WALBytes)
	}
	if st.Checkpoints == 0 {
		t.Fatal("checkpoint not counted")
	}
}
