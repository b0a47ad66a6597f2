package ode

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Part is the test domain type (mirrors the quickstart).
type Part struct {
	Name string
	Rev  int
	Data []byte
}

// envShards returns the shard count forced by ODE_SHARDS, or 0 (the
// Options.Shards default) when unset. The matrix and soak Makefile targets run their
// suites at both Shards=1 and Shards=4 through this hook.
func envShards() int {
	n, _ := strconv.Atoi(os.Getenv("ODE_SHARDS"))
	return n
}

func openDB(t testing.TB, opts *Options) *DB {
	t.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.Shards == 0 {
		opts.Shards = envShards()
	}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestOptionsFieldCount is a ratchet on the size of the option surface:
// every field is a dimension of every test matrix. `make loc` prints the
// count so consolidation PRs can show it going down; a PR that takes
// fields away lowers the ceiling with them.
func TestOptionsFieldCount(t *testing.T) {
	const ceiling = 14
	n := reflect.TypeOf(Options{}).NumField()
	t.Logf("ode.Options has %d fields", n)
	if n > ceiling {
		t.Errorf("ode.Options has %d fields, more than the %d it has been brought down to", n, ceiling)
	}
}

// TestOpenValidatesDeltaOptions: Policy has one value, and
// AnchorInterval must fit the 16-bit chain depth a version record keeps.
func TestOpenValidatesDeltaOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		want string // substring of the error; "" opens
	}{
		{"full-copy", Options{Policy: FullCopy}, ""},
		{"old-delta-policy", Options{Policy: 1}, "DeltaTier"},
		{"unknown-policy", Options{Policy: 7}, "DeltaTier"},
		{"interval-zero", Options{DeltaTier: true}, ""},
		{"interval-max", Options{DeltaTier: true, AnchorInterval: math.MaxUint16}, ""},
		{"interval-negative", Options{DeltaTier: true, AnchorInterval: -1}, "AnchorInterval"},
		{"interval-too-large", Options{DeltaTier: true, AnchorInterval: math.MaxUint16 + 1}, "AnchorInterval"},
		{"interval-too-large-tier-off", Options{AnchorInterval: 1 << 20}, "AnchorInterval"},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Shards = envShards()
			db, err := Open(t.TempDir(), &opts)
			if c.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				db.Close()
				return
			}
			if err == nil {
				db.Close()
				t.Fatalf("Open accepted %+v", c.opts)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Open(%+v): %v, want an error naming %s", c.opts, err, c.want)
			}
		})
	}
}

func TestQuickstartFlow(t *testing.T) {
	db := openDB(t, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	var p Ptr[Part]
	var v0, v1 VPtr[Part]
	err = db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "ALU", Rev: 0})
		if err != nil {
			return err
		}
		v0, err = p.Pin(tx)
		if err != nil {
			return err
		}
		v1, err = p.NewVersion(tx)
		if err != nil {
			return err
		}
		return v1.Set(tx, &Part{Name: "ALU", Rev: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.View(func(tx *Tx) error {
		cur, err := p.Deref(tx) // generic: binds to latest
		if err != nil {
			return err
		}
		if cur.Rev != 1 {
			t.Fatalf("latest Rev = %d", cur.Rev)
		}
		old, err := v0.Deref(tx) // specific: pinned
		if err != nil {
			return err
		}
		if old.Rev != 0 {
			t.Fatalf("pinned Rev = %d", old.Rev)
		}
		d, err := v1.Dprev(tx)
		if err != nil || d.VID() != v0.VID() {
			t.Fatalf("Dprev = %v, %v", d, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestViewRejectsMutation(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "x"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := db.View(func(tx *Tx) error {
		if _, err := parts.Create(tx, &Part{}); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Create in View: %v", err)
		}
		if err := p.Set(tx, &Part{}); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Set in View: %v", err)
		}
		if _, err := p.NewVersion(tx); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("NewVersion in View: %v", err)
		}
		if err := p.Delete(tx); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Delete in View: %v", err)
		}
		if err := tx.SaveConfig("c", nil); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("SaveConfig in View: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypeSafetyOfRef(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	type Other struct{ X int }
	others, _ := Register[Other](db, "Other")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "a"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := db.View(func(tx *Tx) error {
		if _, err := others.Ref(tx, p.OID()); err == nil {
			t.Fatal("cross-type Ref accepted")
		}
		q, err := parts.Ref(tx, p.OID())
		if err != nil {
			return err
		}
		v, err := q.Deref(tx)
		if err != nil || v.Name != "a" {
			t.Fatalf("Ref deref: %+v %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtentAndSelect(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if _, err := parts.Create(tx, &Part{Name: fmt.Sprintf("p%d", i), Rev: i}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		n, err := parts.Count(tx)
		if err != nil || n != 10 {
			t.Fatalf("count = %d, %v", n, err)
		}
		hits, err := parts.Select(tx, func(p *Part) bool { return p.Rev >= 7 })
		if err != nil || len(hits) != 3 {
			t.Fatalf("select: %d, %v", len(hits), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAddressBookGenericReferences reproduces the paper's §2 motivating
// example: "an address-book object that keeps track of current addresses
// requires references to the latest versions of person objects".
func TestAddressBookGenericReferences(t *testing.T) {
	type Person struct {
		Name    string
		Address string
	}
	db := openDB(t, &Options{DeltaTier: true})
	people, _ := Register[Person](db, "Person")

	var alice Ptr[Person]
	var aliceAt []VPtr[Person] // historical pins
	if err := db.Update(func(tx *Tx) error {
		var err error
		alice, err = people.Create(tx, &Person{Name: "Alice", Address: "1 Elm St"})
		if err != nil {
			return err
		}
		pin, err := alice.Pin(tx)
		if err != nil {
			return err
		}
		aliceAt = append(aliceAt, pin)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Alice moves twice; each move is a new version.
	for _, addr := range []string{"2 Oak Ave", "3 Pine Rd"} {
		if err := db.Update(func(tx *Tx) error {
			nv, err := alice.NewVersion(tx)
			if err != nil {
				return err
			}
			if err := nv.Modify(tx, func(p *Person) { p.Address = addr }); err != nil {
				return err
			}
			aliceAt = append(aliceAt, nv)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.View(func(tx *Tx) error {
		// The address book holds the generic reference: always current.
		cur, err := alice.Deref(tx)
		if err != nil || cur.Address != "3 Pine Rd" {
			t.Fatalf("current address: %+v %v", cur, err)
		}
		// Historical pins still resolve (the historical-database use).
		for i, want := range []string{"1 Elm St", "2 Oak Ave", "3 Pine Rd"} {
			got, err := aliceAt[i].Deref(tx)
			if err != nil || got.Address != want {
				t.Fatalf("history %d: %+v %v", i, got, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTriggersFireInsideUpdate(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	var events []EventKind
	db.OnType(parts.ID(), OnAny, false, func(e Event) {
		events = append(events, e.Kind)
	})
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{Name: "t"})
		if err != nil {
			return err
		}
		nv, err := p.NewVersion(tx)
		if err != nil {
			return err
		}
		if err := nv.Set(tx, &Part{Name: "t2"}); err != nil {
			return err
		}
		return nv.Delete(tx)
	}); err != nil {
		t.Fatal(err)
	}
	want := []EventKind{EvCreate, EvNewVersion, EvUpdate, EvDeleteVersion}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v want %v", events, want)
		}
	}
}

func TestOnceTrigger(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	n := 0
	db.OnType(parts.ID(), On(EvNewVersion), true, func(Event) { n++ })
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{})
		if err != nil {
			return err
		}
		if _, err := p.NewVersion(tx); err != nil {
			return err
		}
		_, err = p.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("once trigger fired %d times", n)
	}
}

func TestConcurrentViews(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "shared", Data: make([]byte, 1000)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				err := db.View(func(tx *Tx) error {
					v, err := p.Deref(tx)
					if err != nil {
						return err
					}
					if v.Name != "shared" {
						return fmt.Errorf("torn read: %+v", v)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReadersAndWriterInterleave(t *testing.T) {
	db := openDB(t, &Options{NoSync: true})
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Rev: 0})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.View(func(tx *Tx) error {
					v, err := p.Deref(tx)
					if err != nil {
						return err
					}
					if v.Rev < 0 {
						return fmt.Errorf("bad rev %d", v.Rev)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 1; i <= 50; i++ {
		i := i
		if err := db.Update(func(tx *Tx) error {
			return p.Modify(tx, func(v *Part) { v.Rev = i })
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		v, err := p.Deref(tx)
		if err != nil || v.Rev != 50 {
			t.Fatalf("final rev: %+v %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenPreservesTypedData(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	var o OID
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{Name: "durable", Rev: 7})
		if err != nil {
			return err
		}
		o = p.OID()
		_, err = p.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, &Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	parts2, err := Register[Part](db2, "Part")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.View(func(tx *Tx) error {
		p, err := parts2.Ref(tx, o)
		if err != nil {
			return err
		}
		v, err := p.Deref(tx)
		if err != nil || v.Name != "durable" || v.Rev != 7 {
			t.Fatalf("reopen: %+v %v", v, err)
		}
		n, _ := p.VersionCount(tx)
		if n != 2 {
			t.Fatalf("version count = %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{})
		if err != nil {
			return err
		}
		_, err = p.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Objects != 1 || st.Versions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Commits == 0 {
		t.Fatalf("no commits recorded: %+v", st)
	}
}

func TestUpdateRollbackOnError(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	boom := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		if _, err := parts.Create(tx, &Part{Name: "ghost"}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if st := db.Stats(); st.Objects != 0 {
		t.Fatalf("aborted object counted: %+v", st)
	}
	if err := db.View(func(tx *Tx) error {
		n, err := parts.Count(tx)
		if err != nil || n != 0 {
			t.Fatalf("ghost visible: %d %v", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReadOnlyMissing(t *testing.T) {
	if _, err := Open(t.TempDir(), &Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of missing database succeeded")
	}
}

func TestBackupAndRestore(t *testing.T) {
	db := openDB(t, &Options{DeltaTier: true})
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "original", Rev: 1})
		if err != nil {
			return err
		}
		nv, err := p.NewVersion(tx)
		if err != nil {
			return err
		}
		return nv.Modify(tx, func(x *Part) { x.Rev = 2 })
	}); err != nil {
		t.Fatal(err)
	}
	backupDir := t.TempDir()
	if err := db.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	// Changes after the backup must not appear in the snapshot.
	if err := db.Update(func(tx *Tx) error {
		return p.Modify(tx, func(x *Part) { x.Name = "post-backup" })
	}); err != nil {
		t.Fatal(err)
	}
	// Open the backup as an independent database.
	restored, err := Open(backupDir, &Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rparts, err := Register[Part](restored, "Part")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.View(func(tx *Tx) error {
		q, err := rparts.Ref(tx, p.OID())
		if err != nil {
			return err
		}
		v, err := q.Deref(tx)
		if err != nil {
			return err
		}
		if v.Name != "original" || v.Rev != 2 {
			t.Fatalf("backup content: %+v", v)
		}
		n, _ := q.VersionCount(tx)
		if n != 2 {
			t.Fatalf("backup versions: %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Backing up onto an existing database is refused.
	if err := db.Backup(backupDir); err == nil {
		t.Fatal("backup over existing database accepted")
	}
	if db.Dir() == restored.Dir() {
		t.Fatal("Dir() not distinguishing databases")
	}
}

func TestReadOnlyMode(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, _ := Register[Part](db, "Part")
	var o OID
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{Name: "ro"})
		o = p.OID()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir, &Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rparts, err := Register[Part](ro, "Part")
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.View(func(tx *Tx) error {
		p, err := rparts.Ref(tx, o)
		if err != nil {
			return err
		}
		v, err := p.Deref(tx)
		if err != nil || v.Name != "ro" {
			t.Fatalf("read-only read: %+v %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Writes and checkpoints are rejected with ErrReadOnly.
	err = ro.Update(func(tx *Tx) error { return nil })
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Update on read-only: %v", err)
	}
	if err := ro.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Checkpoint on read-only: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	// The database is untouched and still writable afterwards.
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyRefusesPendingRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	parts, _ := Register[Part](db, "Part")
	if err := db.Update(func(tx *Tx) error {
		_, err := parts.Create(tx, &Part{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): the WAL holds committed work.
	if _, err := Open(dir, &Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open with pending recovery succeeded")
	}
	// A writable open recovers; then read-only works.
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, &Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
}

func TestConcurrentUpdatersSerialize(t *testing.T) {
	db := openDB(t, &Options{NoSync: true})
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Rev: 0})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// 8 goroutines × 25 read-modify-write increments each: with the
	// single-writer lock, no increment can be lost.
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := db.Update(func(tx *Tx) error {
					return p.Modify(tx, func(v *Part) { v.Rev++ })
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		v, err := p.Deref(tx)
		if err != nil {
			return err
		}
		if v.Rev != workers*iters {
			t.Fatalf("lost updates: Rev = %d, want %d", v.Rev, workers*iters)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
