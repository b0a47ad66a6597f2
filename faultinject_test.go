package ode_test

// Engine-level crash consistency through the public Options.FS hook: a
// versioned-object workload (objects, versions, pinned references) runs
// over the fault-injecting filesystem, the power dies after every
// mutating I/O operation, and the reopened database must contain every
// acked update — versions, temporal chains, and indexes intact
// (CheckIntegrity) — and keep accepting writes.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/internal/faultfs"
	"ode/internal/txn"
)

type Widget struct {
	Name string
	Rev  int
}

// envShardCount mirrors the internal test helper: the matrix Makefile
// target re-runs this suite with ODE_SHARDS=4 so every injection point
// is also exercised against four shard WALs and a decision log that
// decides things. Zero (unset) keeps the Options.Shards default.
func envShardCount() int {
	n, _ := strconv.Atoi(os.Getenv("ODE_SHARDS"))
	return n
}

// ackedState records what the workload was promised: per object, the
// highest rev whose Update returned nil.
type ackedState struct {
	ptrs map[string]ode.Ptr[Widget]
	rev  map[string]int
}

// runVersionWorkload creates nObjs objects and grows versions on each,
// checkpointing midway, until an injected fault stops it. Never closes.
func runVersionWorkload(fsys faultfs.FS) (ackedState, error) {
	return runVersionWorkloadOpts(fsys, nil)
}

// runVersionWorkloadOpts is runVersionWorkload with an optional Options
// mutator, so variants (e.g. the crash matrix with a hostile tracer
// installed) reuse the same op space.
func runVersionWorkloadOpts(fsys faultfs.FS, mutate func(*ode.Options)) (ackedState, error) {
	acked := ackedState{ptrs: map[string]ode.Ptr[Widget]{}, rev: map[string]int{}}
	opts := &ode.Options{PageSize: 512, CheckpointBytes: -1, FS: fsys, Shards: envShardCount()}
	if mutate != nil {
		mutate(opts)
	}
	db, err := ode.Open("/vdb", opts)
	if err != nil {
		return acked, err
	}
	widgets, err := ode.Register[Widget](db, "Widget")
	if err != nil {
		return acked, err
	}
	const nObjs, nVers = 3, 4
	for i := 0; i < nObjs; i++ {
		name := fmt.Sprintf("w%d", i)
		var p ode.Ptr[Widget]
		if err := db.Update(func(tx *ode.Tx) error {
			var err error
			p, err = widgets.Create(tx, &Widget{Name: name, Rev: 0})
			return err
		}); err != nil {
			return acked, err
		}
		acked.ptrs[name] = p
		acked.rev[name] = 0
		for v := 1; v <= nVers; v++ {
			if err := db.Update(func(tx *ode.Tx) error {
				nv, err := p.NewVersion(tx)
				if err != nil {
					return err
				}
				return nv.Modify(tx, func(w *Widget) { w.Rev = v })
			}); err != nil {
				return acked, err
			}
			acked.rev[name] = v
		}
		if i == nObjs/2 {
			if err := db.Checkpoint(); err != nil {
				return acked, err
			}
		}
	}
	return acked, nil
}

// verifyVersionImage reopens the crashed image and checks every acked
// object is at its acked rev with an intact version history.
func verifyVersionImage(crashed faultfs.FS, acked ackedState) error {
	db, err := ode.Open("/vdb", &ode.Options{PageSize: 512, FS: crashed})
	if err != nil {
		if len(acked.ptrs) == 0 {
			return nil
		}
		return fmt.Errorf("reopen with %d acked objects: %w", len(acked.ptrs), err)
	}
	defer db.Close()
	if err := db.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity: %w", err)
	}
	if _, err := ode.Register[Widget](db, "Widget"); err != nil {
		return fmt.Errorf("re-register: %w", err)
	}
	for name, p := range acked.ptrs {
		wantRev := acked.rev[name]
		err := db.View(func(tx *ode.Tx) error {
			w, err := p.Deref(tx)
			if err != nil {
				return fmt.Errorf("deref %s: %w", name, err)
			}
			if w.Name != name || w.Rev != wantRev {
				return fmt.Errorf("%s: got %+v, want rev %d", name, w, wantRev)
			}
			// The temporal chain must hold every acked version 0..rev.
			vs, err := p.Versions(tx)
			if err != nil {
				return err
			}
			if len(vs) != wantRev+1 {
				return fmt.Errorf("%s: %d versions, want %d", name, len(vs), wantRev+1)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	// The recovered database must accept new versions (any one object).
	for name, p := range acked.ptrs {
		if err := db.Update(func(tx *ode.Tx) error {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return fmt.Errorf("post-recovery newversion %s: %w", name, err)
			}
			return nv.Modify(tx, func(w *Widget) { w.Rev = -1 })
		}); err != nil {
			return err
		}
		break
	}
	return nil
}

func TestEngineCrashMatrixPowerCut(t *testing.T) {
	// Dry run sizes the op space.
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	if _, err := runVersionWorkload(dry); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	ops := dry.Counts().Ops
	if ops < 10 {
		t.Fatalf("op space suspiciously small: %d", ops)
	}
	// Sample every op point (cheap: in-memory, 512-byte pages).
	for n := uint64(1); n <= ops; n++ {
		mem := faultfs.NewMem()
		acked, _ := runVersionWorkload(faultfs.NewInjector(mem, faultfs.Plan{PowerCutAfterOps: n}))
		if err := verifyVersionImage(mem.Crash(false), acked); err != nil {
			t.Errorf("powerCutAfter=%d: %v", n, err)
		}
	}
	t.Logf("engine crash matrix: %d power-cut points", ops)
}

func TestEngineCrashMatrixFailedSyncs(t *testing.T) {
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	if _, err := runVersionWorkload(dry); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	syncs := dry.Counts().Syncs
	for n := uint64(1); n <= syncs; n++ {
		for _, keep := range []bool{false, true} {
			mem := faultfs.NewMem()
			acked, _ := runVersionWorkload(faultfs.NewInjector(mem, faultfs.Plan{FailSyncN: n}))
			if err := verifyVersionImage(mem.Crash(keep), acked); err != nil {
				t.Errorf("failSync=%d keep=%v: %v", n, keep, err)
			}
		}
	}
	t.Logf("engine crash matrix: %d failed-sync points x2", syncs)
}

// TestNoSyncCheckpointFailureDoesNotFailCommit: under NoSync an automatic
// checkpoint runs on the shard's checkpointer, as it does with fsync on,
// so a checkpoint that fails is no failure of the commit that made it
// due. That Update returns nil and its write is visible; the failed
// flush poisons the shard, so a later Update is refused, and the trigger
// counter counts the checkpoint that failed; and a reopen recovers every
// acknowledged commit from the log.
func TestNoSyncCheckpointFailureDoesNotFailCommit(t *testing.T) {
	opts := func(fsys faultfs.FS) *ode.Options {
		return &ode.Options{Shards: 1, NoSync: true, CheckpointBytes: 64 << 10, FS: fsys}
	}
	setup := func(fsys faultfs.FS) (*ode.DB, *ode.Type[Widget]) {
		t.Helper()
		db, err := ode.Open("/db", opts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		widgets, err := ode.Register[Widget](db, "Widget")
		if err != nil {
			t.Fatal(err)
		}
		return db, widgets
	}
	// No commit syncs under NoSync: the syncs after setup are the first
	// checkpoint's — the log's, then the data file's.
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	db, _ := setup(dry)
	dataSync := dry.Counts().Syncs + 2
	db.Close()

	mem := faultfs.NewMem()
	db, widgets := setup(faultfs.NewInjector(mem, faultfs.Plan{FailSyncN: dataSync}))
	acked := map[string]ode.Ptr[Widget]{}
	create := func(i int) (name string, err error) {
		name = fmt.Sprintf("w%03d-%s", i, strings.Repeat("x", 4000))
		return name, db.Update(func(tx *ode.Tx) error {
			p, err := widgets.Create(tx, &Widget{Name: name, Rev: i})
			if err == nil {
				acked[name] = p
			}
			return err
		})
	}
	visible := func(name string) {
		t.Helper()
		if err := db.View(func(tx *ode.Tx) error {
			w, err := acked[name].Deref(tx)
			if err == nil && w.Name != name {
				err = fmt.Errorf("got %.4s", w.Name)
			}
			return err
		}); err != nil {
			t.Fatalf("acknowledged write %.4s: %v", name, err)
		}
	}
	// The commit that leaves the log at CheckpointBytes makes the
	// checkpoint due (at one shard the decision log holds no frame). The
	// trigger counter moves only when the checkpointer runs it, which
	// may be after the next Update has begun.
	i := 0
	for ; db.Stats().WALBytes < 64<<10; i++ {
		if i == 100 {
			t.Fatal("100 commits of 4 KB and no checkpoint fell due")
		}
		name, err := create(i)
		if err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		visible(name)
	}
	// The checkpoint fails in the background and poisons the shard.
	for deadline := time.Now().Add(5 * time.Second); ; i++ {
		_, err := create(i)
		if errors.Is(err, txn.ErrPoisoned) {
			if !strings.Contains(err.Error(), "checkpoint flush: storage: sync") {
				t.Fatalf("poisoned, but not by the checkpoint's data-file sync: %v", err)
			}
			break
		}
		if err != nil {
			t.Fatalf("Update %d: %v, want nil or ErrPoisoned", i, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the failed checkpoint never poisoned the shard")
		}
		runtime.Gosched()
	}
	if n := db.Metrics().CheckpointsByWALBytes; n != 1 {
		t.Fatalf("CheckpointsByWALBytes = %d after one failed checkpoint, want 1", n)
	}
	db.Close() // poisoned: keeps the log for the reopen

	db, err := ode.Open("/db", opts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if _, err := ode.Register[Widget](db, "Widget"); err != nil {
		t.Fatal(err)
	}
	for name := range acked {
		visible(name)
	}
}
