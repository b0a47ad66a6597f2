package core

// Error-path coverage: every engine operation must fail cleanly (typed
// errors, no corruption) on missing objects, missing versions, and
// misuse.

import (
	"errors"
	"testing"

	"ode/internal/oid"
)

func TestOpsOnMissingObject(t *testing.T) {
	e := newEngine(t, Options{})
	ghost := oid.OID(4242)
	w(t, e, func(tx *Tx) error {
		if _, _, err := tx.ReadLatest(ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("ReadLatest: %v", err)
		}
		if _, err := tx.NewVersion(ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("NewVersion: %v", err)
		}
		if err := tx.DeleteObject(ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("DeleteObject: %v", err)
		}
		if err := tx.DeleteVersion(ghost, oid.VID(1)); !errors.Is(err, ErrNoObject) {
			t.Fatalf("DeleteVersion: %v", err)
		}
		if _, err := tx.Latest(ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("Latest: %v", err)
		}
		if _, err := tx.Render(ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("Render: %v", err)
		}
		if _, err := tx.Versions(ghost); err != nil {
			// Versions on a missing object is an empty scan, not an error.
			t.Fatalf("Versions: %v", err)
		}
		return nil
	})
}

func TestOpsOnMissingVersion(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	w(t, e, func(tx *Tx) error {
		var err error
		o, _, err = tx.Create(ty, []byte("x"))
		return err
	})
	ghost := oid.VID(777)
	w(t, e, func(tx *Tx) error {
		if _, err := tx.ReadVersion(o, ghost); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("ReadVersion: %v", err)
		}
		if err := tx.UpdateVersion(o, ghost, []byte("y")); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("UpdateVersion: %v", err)
		}
		if _, err := tx.NewVersionFrom(o, ghost); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("NewVersionFrom: %v", err)
		}
		// DeleteVersion on a multi-version object with a ghost vid.
		if _, err := tx.NewVersion(o); err != nil {
			return err
		}
		if err := tx.DeleteVersion(o, ghost); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("DeleteVersion: %v", err)
		}
		if _, err := tx.Dprev(o, ghost); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("Dprev: %v", err)
		}
		if _, err := tx.Info(o, ghost); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("Info: %v", err)
		}
		if _, err := tx.DChildren(o, ghost); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("DChildren: %v", err)
		}
		return nil
	})
	// Engine state undamaged by all the failures.
	w(t, e, func(tx *Tx) error { return tx.CheckAll() })
}

func TestConfigErrorPaths(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	w(t, e, func(tx *Tx) error {
		var err error
		o, _, err = tx.Create(ty, []byte("x"))
		return err
	})
	w(t, e, func(tx *Tx) error {
		if err := tx.SaveConfig("", nil); err == nil {
			t.Fatal("empty config name accepted")
		}
		if err := tx.SetContext("", nil); err == nil {
			t.Fatal("empty context name accepted")
		}
		if _, err := tx.ResolveConfig("missing"); err == nil {
			t.Fatal("missing config resolved")
		}
		if _, err := tx.ResolveInContext("missing", o); err == nil {
			t.Fatal("missing context resolved")
		}
		// Config naming a dead object fails validation.
		if err := tx.SaveConfig("bad", []Binding{{Slot: "s", Obj: oid.OID(999)}}); !errors.Is(err, ErrNoObject) {
			t.Fatalf("dead dynamic binding: %v", err)
		}
		if err := tx.SetContext("bad", map[oid.OID]oid.VID{o: oid.VID(999)}); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("dead context pin: %v", err)
		}
		// Deleting unknown config/context is a no-op, not an error.
		if err := tx.DeleteConfig("never-existed"); err != nil {
			t.Fatalf("DeleteConfig: %v", err)
		}
		if err := tx.DeleteContext("never-existed"); err != nil {
			t.Fatalf("DeleteContext: %v", err)
		}
		return nil
	})
}

func TestConfigResolutionAfterComponentDeletion(t *testing.T) {
	// A dynamic binding whose object is later deleted must fail to
	// resolve with a clear error (dangling reference detection).
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	w(t, e, func(tx *Tx) error {
		var err error
		o, _, err = tx.Create(ty, []byte("x"))
		if err != nil {
			return err
		}
		return tx.SaveConfig("cfg", []Binding{{Slot: "s", Obj: o}})
	})
	w(t, e, func(tx *Tx) error { return tx.DeleteObject(o) })
	w(t, e, func(tx *Tx) error {
		if _, err := tx.ResolveConfig("cfg"); !errors.Is(err, ErrNoObject) {
			t.Fatalf("dangling config resolve: %v", err)
		}
		return nil
	})
}

func TestEmptyTypeNameRejected(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.RegisterType(""); err == nil {
		t.Fatal("empty type name accepted")
	}
}

func TestAsOfAfterDeletions(t *testing.T) {
	// AsOf must skip deleted versions: after pruning the middle of a
	// history, an as-of query at the pruned stamp returns the nearest
	// surviving predecessor.
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var vids []oid.VID
	var stamps []oid.Stamp
	w(t, e, func(tx *Tx) error {
		var err error
		var v oid.VID
		o, v, err = tx.Create(ty, []byte("s"))
		if err != nil {
			return err
		}
		vids = append(vids, v)
		for i := 0; i < 4; i++ {
			v, err = tx.NewVersion(o)
			if err != nil {
				return err
			}
			vids = append(vids, v)
		}
		for _, v := range vids {
			info, err := tx.Info(o, v)
			if err != nil {
				return err
			}
			stamps = append(stamps, info.Stamp)
		}
		return nil
	})
	// Delete the middle version.
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, vids[2]) })
	w(t, e, func(tx *Tx) error {
		got, ok, err := tx.AsOf(o, stamps[2])
		if err != nil || !ok {
			t.Fatalf("AsOf after deletion: %v %v", ok, err)
		}
		if got != vids[1] {
			t.Fatalf("AsOf(%v) = %v, want predecessor %v", stamps[2], got, vids[1])
		}
		// The walk-based variant agrees.
		walk, ok, err := tx.AsOfWalk(o, stamps[2])
		if err != nil || !ok || walk != got {
			t.Fatalf("AsOfWalk disagrees: %v %v %v", walk, ok, err)
		}
		return nil
	})
}

func TestIndexOnMissingNameIsCreated(t *testing.T) {
	e := newEngine(t, Options{})
	w(t, e, func(tx *Tx) error {
		// Reading from a never-written index creates an empty tree.
		if _, ok, err := tx.IndexGet("fresh", []byte("k")); err != nil || ok {
			t.Fatalf("fresh index get: %v %v", ok, err)
		}
		if err := tx.IndexPut("fresh", []byte("k"), []byte("v")); err != nil {
			return err
		}
		v, ok, err := tx.IndexGet("fresh", []byte("k"))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("index roundtrip: %q %v %v", v, ok, err)
		}
		names, err := tx.IndexNames()
		if err != nil || len(names) != 1 || names[0] != "fresh" {
			t.Fatalf("index names: %v %v", names, err)
		}
		return tx.IndexCheck("fresh")
	})
}
