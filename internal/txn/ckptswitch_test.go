package txn

// Crash matrix for the automatic checkpoint that writes pages back off
// the writer mutex (Manager.checkpoint, detached). A deterministic workload
// commits on one shard before, during and after such a checkpoint: it
// parks the checkpoint in its data-file fsync, commits into the new log
// segment (with sync on and more than one shard, a cross-shard commit
// too, whose prepare lands there), lets the checkpoint finish, commits
// again, runs an explicit checkpoint, which empties the second file in
// place, commits again, and runs a second automatic checkpoint, which
// moves the log back to its first file. Every fsync fails once, every write tears three ways and
// the power dies after every mutating op from the first checkpoint on —
// which covers a cut after the switch (the new segment's header), a torn
// page write, a cut after the data fsync, and cuts before and after the
// old segment's retirement — under NoSync and with sync on, at the shard
// count ODE_SHARDS names (1 unless set; `make matrix` runs 1 and 4). After
// each crash the directory must reopen with every acknowledged commit
// (with sync on) or a prefix of each shard's commits (NoSync), no
// cross-shard commit torn, and accept writes on every shard.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

const switchDir = "/db"

// switchShards is the shard count the matrix runs at: ODE_SHARDS, or 1.
func switchShards() int {
	if n, _ := strconv.Atoi(os.Getenv("ODE_SHARDS")); n > 0 {
		return n
	}
	return 1
}

func switchPayload(i, s int) []byte {
	return []byte(fmt.Sprintf("sw-%04d-shard-%d-%s", i, s, strings.Repeat("p", 40+i%5*30)))
}

// parkSync is a filesystem whose first Sync of the file called name,
// once armed, waits for release: a checkpoint held in its data-file
// fsync. It parks before the filesystem beneath sees the call, so an
// injector there counts the sync when it is released.
type parkSync struct {
	faultfs.FS
	name    string
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newParkSync(fsys faultfs.FS, name string) *parkSync {
	return &parkSync{FS: fsys, name: name, parked: make(chan struct{}), release: make(chan struct{})}
}

func (f *parkSync) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	h, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != f.name {
		return h, err
	}
	return &parkSyncFile{File: h, fs: f}, nil
}

type parkSyncFile struct {
	faultfs.File
	fs *parkSync
}

func (h *parkSyncFile) Sync() error {
	if h.fs.armed.CompareAndSwap(true, false) {
		close(h.fs.parked)
		<-h.fs.release
	}
	return h.File.Sync()
}

// switchTxn is one transaction of the workload: the shards it inserted
// on and where.
type switchTxn struct {
	shards []int
	rids   map[int]oid.RID
}

type switchResult struct {
	txns     []switchTxn // in commit order; all acknowledged but pending
	pending  int         // the transaction that failed (-1: none)
	parked   bool        // commits ran while the first checkpoint was parked
	buildErr error
	c        *Coordinator // left open: the crash image is taken first
}

// close closes the workload's coordinator once its crash image has been
// taken, so that a matrix of trials does not keep every one of them
// alive (under -race, about a megabyte each).
func (r switchResult) close() {
	if r.c != nil {
		r.c.Close()
	}
}

// runSwitchWorkload runs the workload on fsys. mark, if set, runs just
// before the first checkpoint begins. The coordinator is deliberately
// not closed: Close would checkpoint, and the crash image must be the
// workload's.
func runSwitchWorkload(fsys faultfs.FS, noSync bool, mark func()) switchResult {
	n := switchShards()
	k := n - 1 // the shard that checkpoints
	park := newParkSync(fsys, ShardDataFileName(k))
	res := switchResult{pending: -1}
	c, err := OpenCoordinator(switchDir, Options{
		Shards:          n,
		NoSync:          noSync,
		Storage:         storage.Options{PageSize: 512},
		CheckpointBytes: -1, // no checkpoint but the two below
		FS:              park,
	})
	if err != nil {
		res.buildErr = err
		return res
	}
	res.c = c
	m := c.ms()[k]
	write := func(shards ...int) bool {
		i := len(res.txns)
		tx := switchTxn{shards: shards, rids: map[int]oid.RID{}}
		err := c.Write(func(w *WriteTx) error {
			for _, s := range shards {
				v, err := w.Join(s)
				if err != nil {
					return err
				}
				rid, err := storage.NewHeap(v, nil).Insert(switchPayload(i, s))
				if err != nil {
					return err
				}
				tx.rids[s] = rid
			}
			return nil
		})
		res.txns = append(res.txns, tx)
		if err != nil {
			res.pending, res.buildErr = i, err
		}
		return err == nil
	}
	writes := func(count int) bool {
		for i := 0; i < count; i++ {
			if !write(k) {
				return false
			}
		}
		return true
	}
	// checkpoint runs an automatic checkpoint of shard k on a goroutine
	// of its own, as the checkpointer does, and reports its end.
	checkpoint := func() chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.lockWriterQuiesced()
			m.checkpoint(true)
		}()
		return done
	}
	poisoned := func() bool {
		if err := m.poisoned(); err != nil {
			res.buildErr = err
			return true
		}
		return false
	}

	if !writes(6) {
		return res
	}
	if mark != nil {
		mark()
	}
	park.armed.Store(true)
	done := checkpoint()
	select {
	case <-park.parked:
		res.parked = true
		ok := writes(4)
		if ok && n > 1 && !noSync {
			ok = write(0, k)
		}
		close(park.release)
		<-done
		if !ok {
			return res
		}
	case <-done: // failed before its data-file fsync
		park.armed.Store(false)
	}
	if poisoned() || !writes(3) {
		return res
	}
	// An explicit checkpoint with the log in its second file empties that
	// file in place; the next automatic one still switches onto the spare,
	// a generation ahead.
	if err := m.Checkpoint(); err != nil {
		res.buildErr = err
		return res
	}
	if !writes(2) {
		return res
	}
	<-checkpoint()
	if poisoned() || !writes(2) {
		return res
	}
	return res
}

// verifySwitchImage reopens the crashed directory and checks it.
func verifySwitchImage(crashed faultfs.FS, res switchResult, noSync bool) error {
	n := switchShards()
	c, err := OpenCoordinator(switchDir, Options{Shards: n, Storage: storage.Options{PageSize: 512}, FS: crashed})
	if err != nil {
		if len(res.txns) == 0 || (len(res.txns) == 1 && res.pending == 0) {
			return nil // nothing was acknowledged
		}
		return fmt.Errorf("reopen failed: %w", err)
	}
	defer c.Close()
	lost := map[int]int{} // shard -> the first acknowledged commit on it that is gone
	for i, tx := range res.txns {
		present := 0
		for _, s := range tx.shards {
			rid, ok := tx.rids[s]
			if !ok {
				continue // the fault hit before this shard's insert
			}
			var got []byte
			err := c.Read(func(r *ReadTx) error {
				var err error
				got, err = storage.NewHeap(r.View(s), nil).Read(rid)
				return err
			})
			switch {
			case err != nil:
			case string(got) != string(switchPayload(i, s)):
				return fmt.Errorf("txn %d shard %d corrupt: %q", i, s, got)
			default:
				present++
				if j, ok := lost[s]; ok {
					return fmt.Errorf("txn %d survived on shard %d, but commit %d before it is gone", i, s, j)
				}
			}
		}
		if present != 0 && present != len(tx.shards) {
			return fmt.Errorf("txn %d torn across shards: %d/%d present", i, present, len(tx.shards))
		}
		if i == res.pending || present > 0 {
			continue
		}
		if !noSync {
			return fmt.Errorf("acknowledged txn %d lost", i)
		}
		for _, s := range tx.shards {
			if _, ok := lost[s]; !ok {
				lost[s] = i
			}
		}
	}
	if err := c.Write(func(w *WriteTx) error {
		for s := 0; s < n; s++ {
			v, err := w.Join(s)
			if err != nil {
				return err
			}
			if _, err := storage.NewHeap(v, nil).Insert([]byte("post-recovery")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("recovered database rejects writes: %w", err)
	}
	return nil
}

func TestCheckpointSwitchFaultMatrix(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		t.Run(fmt.Sprintf("shards=%d/NoSync=%v", switchShards(), noSync), func(t *testing.T) {
			dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
			var from faultfs.Counts
			res := runSwitchWorkload(dry, noSync, func() { from = dry.Counts() })
			if res.buildErr != nil || !res.parked {
				t.Fatalf("dry run: parked=%v, %v", res.parked, res.buildErr)
			}
			to := dry.Counts()
			res.close()
			t.Logf("window: ops %d..%d (%d writes, %d syncs)", from.Ops+1, to.Ops, to.Writes-from.Writes, to.Syncs-from.Syncs)

			points := 0
			trial := func(plan faultfs.Plan, keepUnsynced bool) {
				t.Helper()
				points++
				mem := faultfs.NewMem()
				res := runSwitchWorkload(faultfs.NewInjector(mem, plan), noSync, nil)
				crashed := mem.Crash(keepUnsynced)
				res.close()
				if err := verifySwitchImage(crashed, res, noSync); err != nil {
					t.Errorf("%v keepUnsynced=%v (%d txns, pending=%d, parked=%v, buildErr=%v): %v",
						plan, keepUnsynced, len(res.txns), res.pending, res.parked, res.buildErr, err)
				}
			}
			for n := from.Syncs + 1; n <= to.Syncs; n++ {
				trial(faultfs.Plan{FailSyncN: n}, false)
				trial(faultfs.Plan{FailSyncN: n}, true)
			}
			for n := from.Writes + 1; n <= to.Writes; n++ {
				trial(faultfs.Plan{TearWriteN: n, TearBytes: 0}, false)
				trial(faultfs.Plan{TearWriteN: n, TearBytes: 7}, true)
				trial(faultfs.Plan{TearWriteN: n, TearBytes: 256}, true)
			}
			for n := from.Ops + 1; n <= to.Ops; n++ {
				trial(faultfs.Plan{PowerCutAfterOps: n}, false)
				trial(faultfs.Plan{PowerCutAfterOps: n}, true)
			}
			t.Logf("checkpoint-switch fault matrix: %d injection points", points)
			if points < 30 {
				t.Fatalf("matrix too small: %d points", points)
			}
		})
	}
}
