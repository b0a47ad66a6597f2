package ode

// One directory layout at every shard count (DESIGN.md §12.4): what
// happens to a directory written before shards existed — adopted in
// place, crash-safely, and never by a read-only open — and that a
// database born with one shard is not stuck with one.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/txn"
)

// legacyImage loads the pre-shard fixture into an in-memory filesystem.
func legacyImage(t *testing.T) (*faultfs.Mem, []formatObject) {
	t.Helper()
	files, model := formatFixture(t, "legacy-unrecovered")
	return formatMem(t, files), model
}

// dirBytes reads every file of the database directory.
func dirBytes(t *testing.T, mem *faultfs.Mem) map[string][]byte {
	t.Helper()
	names, err := mem.ReadDir(formatDBDir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		if out[name], err = mem.ReadFile(filepath.Join(formatDBDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// openCutAfter opens the database on mem with the power going out after
// n mutating operations (0: never) and returns how many the open made.
// The handle is abandoned, as a power cut abandons it.
func openCutAfter(mem *faultfs.Mem, n uint64) (ops uint64, err error) {
	in := faultfs.NewInjector(mem, faultfs.Plan{PowerCutAfterOps: n})
	_, err = Open(formatDBDir, &Options{FS: in})
	return in.Counts().Ops, err
}

// TestAdoptionCrashMatrix cuts the power after every mutating operation
// of the open that adopts a pre-shard directory, and again after every
// one of the open that follows. Whatever the cuts leave is a directory
// that was never adopted or one that was — never a mixed or partial one
// — and it opens, recovers to the fixture's manifest and passes
// CheckIntegrity.
func TestAdoptionCrashMatrix(t *testing.T) {
	pristine, model := legacyImage(t)
	settles := func(t *testing.T, img *faultfs.Mem) {
		t.Helper()
		sharded, legacy0, err := txn.DetectLayout(img, formatDBDir)
		if err != nil || !legacy0 {
			t.Fatalf("directory is neither adopted nor never-adopted: sharded=%v legacy0=%v err=%v", sharded, legacy0, err)
		}
		db, err := Open(formatDBDir, &Options{FS: img.Clone()})
		if err != nil {
			t.Fatalf("open (adopted=%v): %v", sharded, err)
		}
		defer db.Close()
		if db.Shards() != 1 {
			t.Fatalf("opened with %d shards", db.Shards())
		}
		formatCheck(t, db, model)
	}
	total, err := openCutAfter(pristine.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if total < 4 {
		t.Fatalf("the adopting open made %d mutating operations; the matrix is vacuous", total)
	}
	adopted := 0
	for n := uint64(1); n <= total; n++ {
		mem := pristine.Clone()
		if _, err := openCutAfter(mem, n); err != nil && !errors.Is(err, faultfs.ErrPowerCut) {
			t.Fatalf("cut %d: open failed with %v, not the power cut", n, err)
		}
		first := mem.Crash(false)
		if sharded, _, _ := txn.DetectLayout(first, formatDBDir); sharded {
			adopted++
		}
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) { settles(t, first) })
		again, err := openCutAfter(first.Clone(), 0)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", n, err)
		}
		for m := uint64(1); m <= again; m++ {
			mem := first.Clone()
			if _, err := openCutAfter(mem, m); err != nil && !errors.Is(err, faultfs.ErrPowerCut) {
				t.Fatalf("cut %d then %d: open failed with %v, not the power cut", n, m, err)
			}
			t.Run(fmt.Sprintf("cut=%d/recut=%d", n, m), func(t *testing.T) { settles(t, mem.Crash(false)) })
		}
	}
	if adopted == 0 || adopted == int(total) {
		t.Fatalf("%d of %d cuts left an adopted directory; the matrix saw only one side of the adoption", adopted, total)
	}
}

// TestReadOnlyOpenNeverAdopts: a read-only open of a pre-shard directory
// serves it as the one-shard database it is and changes nothing on disk
// — no shards.ode, no coord.ode, not a byte.
func TestReadOnlyOpenNeverAdopts(t *testing.T) {
	mem, model := legacyImage(t)
	unchanged := func(t *testing.T, before map[string][]byte, in *faultfs.Injector) {
		t.Helper()
		if ops := in.Counts().Ops; ops != 0 {
			t.Errorf("read-only open made %d mutating operations", ops)
		}
		after := dirBytes(t, mem)
		if len(after) != len(before) {
			t.Fatalf("directory went from %d files to %d", len(before), len(after))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Errorf("%s changed", name)
			}
		}
	}
	// As the crash left it, the WAL holds committed work: a read-only
	// open cannot serve that, and must not touch it either.
	before := dirBytes(t, mem)
	in := faultfs.NewInjector(mem, faultfs.Plan{})
	if _, err := Open(formatDBDir, &Options{FS: in, ReadOnly: true}); !errors.Is(err, txn.ErrNeedsRecovery) {
		t.Fatalf("read-only open of the unrecovered directory: %v, want ErrNeedsRecovery", err)
	}
	unchanged(t, before, in)
	// Recovered and closed cleanly by a standalone Manager — which, like
	// the release that wrote the directory, knows nothing of shards.ode.
	m, err := txn.Open(formatDBDir, txn.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	before = dirBytes(t, mem)
	if len(before) != 2 {
		t.Fatalf("a standalone Manager left %d files, want data.ode and wal.ode", len(before))
	}
	in = faultfs.NewInjector(mem, faultfs.Plan{})
	db, err := Open(formatDBDir, &Options{FS: in, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if db.Shards() != 1 {
		t.Fatalf("opened with %d shards", db.Shards())
	}
	formatCheck(t, db, model)
	for what, err := range map[string]error{
		"Update":     db.Update(func(*Tx) error { return nil }),
		"Checkpoint": db.Checkpoint(),
		"Reshard":    db.Reshard(2),
		"Backup":     db.Backup(t.TempDir()),
	} {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on a read-only database: %v, want ErrReadOnly", what, err)
		}
	}
	_ = db.Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	unchanged(t, before, in)
}

// TestOneShardDatabaseCanGrow is the cliff this layout removes: on a
// one-CPU host a default Open creates one shard, and that database used
// to be unable to Reshard, ever.
func TestOneShardDatabaseCanGrow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 1 {
		t.Fatalf("GOMAXPROCS(1) created %d shards", db.Shards())
	}
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]Ptr[Part], 50)
	for i := range ptrs {
		if err := db.Update(func(tx *Tx) error {
			var err error
			ptrs[i], err = parts.Create(tx, &Part{Name: fmt.Sprint(i), Rev: i})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Reshard(4); err != nil {
		t.Fatalf("Reshard(4) on a database created with one shard: %v", err)
	}
	if db.Shards() != 4 {
		t.Fatalf("%d shards after Reshard(4)", db.Shards())
	}
	moved := 0
	if err := db.View(func(tx *Tx) error {
		for i, p := range ptrs {
			got, err := p.Deref(tx)
			if err != nil {
				return err
			}
			if got.Rev != i {
				return fmt.Errorf("object %d reads back Rev %d", i, got.Rev)
			}
			if db.coord.Map().ShardOf(uint64(p.OID())) != 0 {
				moved++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("the split moved no object off shard 0")
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := Open(dir, &Options{Shards: -1}); err == nil {
		db.Close()
		t.Fatal("Shards: -1 opened a database")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused open left %s behind (%v)", dir, err)
	}
}
