package ode

// The decision log's lifecycle (DESIGN.md §12.2): a cross-shard commit
// that leaves coord.ode at CheckpointBytes trims it, so the log stays
// bounded however long the database runs between reopens; the trim is
// safe at a power cut right after it, and a trim that fails poisons the
// log without failing the commit that ran it.

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/txn"
	"ode/internal/wal"
)

// maxDecisionFrame is the largest decision record: frame header, type
// byte and a global transaction id of at most ten varint bytes.
const maxDecisionFrame = 8 + 1 + binary.MaxVarintLen64

// setRevs is a one-field cross-shard Update: it sets Rev on every object.
func setRevs(db *DB, rev int, ps ...Ptr[Part]) error {
	return db.Update(func(tx *Tx) error {
		for _, p := range ps {
			if err := p.Modify(tx, func(x *Part) { x.Rev = rev }); err != nil {
				return err
			}
		}
		return nil
	})
}

// revsOf reads Rev from every object.
func revsOf(t *testing.T, db *DB, ps ...Ptr[Part]) []int {
	t.Helper()
	var revs []int
	if err := db.View(func(tx *Tx) error {
		for _, p := range ps {
			x, err := p.Deref(tx)
			if err != nil {
				return err
			}
			revs = append(revs, x.Rev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return revs
}

// TestDecisionLogBounded: 20,000 cross-shard commits under NoSync keep
// coord.ode within CheckpointBytes plus one decision frame. It used to
// grow by a frame a commit until the next explicit Checkpoint or Close
// (~236 KB here), while the shard logs checkpointed on their own.
func TestDecisionLogBounded(t *testing.T) {
	const limit, commits = 64 << 10, 20000
	dir := t.TempDir()
	opts := &Options{Shards: 2, NoSync: true, CheckpointBytes: limit}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	a, b := crossShardPair(t, db, parts)
	before := db.Stats().Checkpoints
	coord := filepath.Join(dir, txn.CoordWALFileName)
	for i := 1; i <= commits; i++ {
		if err := setRevs(db, i, a, b); err != nil {
			t.Fatal(err)
		}
		if i%100 != 0 {
			continue
		}
		if fi, err := os.Stat(coord); err != nil {
			t.Fatal(err)
		} else if fi.Size() > limit+maxDecisionFrame {
			t.Fatalf("after %d cross-shard commits %s holds %d bytes, CheckpointBytes = %d", i, txn.CoordWALFileName, fi.Size(), limit)
		}
	}
	if db.Stats().Checkpoints == before {
		t.Error("the shard logs never checkpointed")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if revs := revsOf(t, db, a, b); revs[0] != commits || revs[1] != commits {
		t.Fatalf("after reopen Rev = %v, want %d on both", revs, commits)
	}
}

// coordFS watches the decision log: a trim is its truncation back to
// the header, then a sync. onTrim runs once a trim's sync has returned;
// failTruncate and failSync fail the next trim's truncate or sync, once,
// and set fired. Only the goroutine running Update touches the fields.
type coordFS struct {
	FS
	onTrim                 func()
	failTruncate, failSync bool
	fired                  bool
}

func (c *coordFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != txn.CoordWALFileName {
		return f, err
	}
	return &coordFile{File: f, fs: c}, nil
}

type coordFile struct {
	faultfs.File
	fs       *coordFS
	trimming bool
}

func (f *coordFile) Truncate(size int64) error {
	if size == wal.HeaderSize && f.fs.failTruncate {
		f.fs.failTruncate, f.fs.fired = false, true
		return faultfs.ErrInjected
	}
	f.trimming = size == wal.HeaderSize
	return f.File.Truncate(size)
}

func (f *coordFile) Sync() error {
	trim := f.trimming
	f.trimming = false
	if trim && f.fs.failSync {
		f.fs.failSync, f.fs.fired = false, true
		return faultfs.ErrInjected
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	if trim && f.fs.onTrim != nil {
		f.fs.onTrim()
	}
	return nil
}

// TestDecisionLogBoundedPowerCut is the bound with every commit synced,
// plus the trim's safety: a power cut right after any trim reopens with
// every acknowledged commit, on both shards.
func TestDecisionLogBoundedPowerCut(t *testing.T) {
	const limit, commits = 8 << 10, 2000
	mem := faultfs.NewMem()
	fsys := &coordFS{FS: mem}
	db, err := Open("/db", &Options{Shards: 2, CheckpointBytes: limit, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	a, b := crossShardPair(t, db, parts)
	type cut struct {
		fs    *faultfs.Mem
		acked int
	}
	var cuts []cut
	acked := 0
	fsys.onTrim = func() { cuts = append(cuts, cut{mem.Crash(false), acked}) }
	coord := filepath.Join("/db", txn.CoordWALFileName)
	for i := 1; i <= commits; i++ {
		if err := setRevs(db, i, a, b); err != nil {
			t.Fatal(err)
		}
		acked = i
		if i%100 != 0 {
			continue
		}
		if n, err := mem.Stat(coord); err != nil {
			t.Fatal(err)
		} else if n > limit+maxDecisionFrame {
			t.Fatalf("after %d cross-shard commits %s holds %d bytes, CheckpointBytes = %d", i, txn.CoordWALFileName, n, limit)
		}
	}
	fsys.onTrim = nil
	if len(cuts) == 0 {
		t.Fatalf("%d cross-shard commits and no trim of %s", commits, txn.CoordWALFileName)
	}
	for _, c := range cuts {
		crashed, err := Open("/db", &Options{FS: c.fs})
		if err != nil {
			t.Fatalf("reopen after a trim at %d acked commits: %v", c.acked, err)
		}
		revs := revsOf(t, crashed, a, b)
		if err := crashed.Close(); err != nil {
			t.Fatal(err)
		}
		if revs[0] != revs[1] || revs[0] < c.acked {
			t.Fatalf("power cut after a trim at %d acked commits: Rev = %v", c.acked, revs)
		}
	}
}

// TestDecisionTrimFaultMatrix fails the automatic trim's truncate, then
// its sync. The commit that ran it is acknowledged and survives a power
// cut; the decision log is poisoned, so later cross-shard commits fail,
// while single-shard commits go on.
func TestDecisionTrimFaultMatrix(t *testing.T) {
	for _, fault := range []string{"truncate", "sync"} {
		t.Run(fault, func(t *testing.T) {
			mem := faultfs.NewMem()
			fsys := &coordFS{FS: mem}
			db, err := Open("/db", &Options{Shards: max(2, envShards()), CheckpointBytes: 4 << 10, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			parts, err := Register[Part](db, "Part")
			if err != nil {
				t.Fatal(err)
			}
			a, b := crossShardPair(t, db, parts)
			fsys.failTruncate, fsys.failSync = fault == "truncate", fault == "sync"
			trigger := 0
			for !fsys.fired {
				if trigger++; trigger > 2000 {
					t.Fatal("no trim in 2000 cross-shard commits")
				}
				if err := setRevs(db, trigger, a, b); err != nil {
					t.Fatalf("commit %d: %v", trigger, err)
				}
			}
			afterTrigger := mem.Crash(false)
			if err := setRevs(db, trigger+1, a, b); !errors.Is(err, txn.ErrPoisoned) {
				t.Fatalf("cross-shard commit after the failed trim: %v, want ErrPoisoned", err)
			}
			for _, p := range []Ptr[Part]{a, b} {
				if err := setRevs(db, -trigger, p); err != nil {
					t.Fatalf("single-shard commit after the failed trim: %v", err)
				}
			}
			for cut, want := range map[*faultfs.Mem]int{afterTrigger: trigger, mem.Crash(false): -trigger} {
				crashed, err := Open("/db", &Options{FS: cut})
				if err != nil {
					t.Fatal(err)
				}
				revs := revsOf(t, crashed, a, b)
				if err := crashed.CheckIntegrity(); err != nil {
					t.Fatal(err)
				}
				if err := crashed.Close(); err != nil {
					t.Fatal(err)
				}
				if revs[0] != want || revs[1] != want {
					t.Fatalf("after a power cut Rev = %v, want %d on both", revs, want)
				}
			}
		})
	}
}
