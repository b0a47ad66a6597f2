package ode

import (
	"errors"
	"testing"
)

func TestAnnotationsLifecycle(t *testing.T) {
	db := openDB(t, &Options{DeltaTier: true})
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	var v0, v1 VPtr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "ann"})
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
		if err := v0.Annotate(tx, "state", "released"); err != nil {
			return err
		}
		if err := v0.Annotate(tx, "qualified-by", "alice"); err != nil {
			return err
		}
		return v1.Annotate(tx, "state", "in-progress")
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		m, ok, err := v0.Annotations(tx)
		if err != nil || !ok || len(m) != 2 || m["state"] != "released" {
			t.Fatalf("v0 annotations: %v %v %v", m, ok, err)
		}
		got, ok, err := v1.Annotation(tx, "state")
		if err != nil || !ok || got != "in-progress" {
			t.Fatalf("v1 state: %q %v %v", got, ok, err)
		}
		// Annotations are per-version: v1 has no qualified-by.
		if _, ok, _ := v1.Annotation(tx, "qualified-by"); ok {
			t.Fatal("annotation leaked across versions")
		}
		// Klahold-style partition query.
		rel, err := tx.VersionsWhere(p.OID(), "state", "released")
		if err != nil || len(rel) != 1 || rel[0] != v0.VID() {
			t.Fatalf("VersionsWhere: %v %v", rel, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Clearing and overwriting.
	if err := db.Update(func(tx *Tx) error {
		if err := v0.Annotate(tx, "qualified-by", ""); err != nil { // clear
			return err
		}
		return v1.Annotate(tx, "state", "released") // overwrite
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		if _, ok, _ := v0.Annotation(tx, "qualified-by"); ok {
			t.Fatal("cleared annotation survived")
		}
		rel, err := tx.VersionsWhere(p.OID(), "state", "released")
		if err != nil || len(rel) != 2 {
			t.Fatalf("after promote: %v %v", rel, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnotationsRemovedWithVersion(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	var v1 VPtr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{})
		if err != nil {
			return err
		}
		v1, err = p.NewVersion(tx)
		if err != nil {
			return err
		}
		return v1.Annotate(tx, "state", "draft")
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return v1.Delete(tx) }); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		// The version is gone; its annotation record must be gone too
		// (verified indirectly: a same-key re-creation starts clean).
		if _, ok, _ := tx.Annotations(p.OID(), v1.VID()); ok {
			t.Fatal("annotations survived version deletion")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deleting the whole object removes its annotations too.
	if err := db.Update(func(tx *Tx) error {
		pin, err := p.Pin(tx)
		if err != nil {
			return err
		}
		if err := pin.Annotate(tx, "state", "whatever"); err != nil {
			return err
		}
		return p.Delete(tx)
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		names, err := tx.Configs()
		if err != nil || len(names) != 0 {
			t.Fatalf("config tree residue: %v %v", names, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnotateErrors(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		return tx.Annotate(p.OID(), VID(999), "k", "v")
	})
	if !errors.Is(err, ErrNoVersion) {
		t.Fatalf("annotate ghost version: %v", err)
	}
	err = db.Update(func(tx *Tx) error {
		pin, _ := p.Pin(tx)
		return pin.Annotate(tx, "", "v")
	})
	if err == nil {
		t.Fatal("empty annotation key accepted")
	}
	// Read-only transactions reject annotation writes.
	err = db.View(func(tx *Tx) error {
		pin, _ := p.Pin(tx)
		return pin.Annotate(tx, "k", "v")
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("annotate in View: %v", err)
	}
}

// TestReleaseWorkflowWithAnnotations ties annotations to the paper's
// design-management story: in-progress versions are iterated on, one is
// marked released, and the release context is built from the partition
// query.
func TestReleaseWorkflowWithAnnotations(t *testing.T) {
	db := openDB(t, &Options{DeltaTier: true})
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "chip", Rev: 0})
		if err != nil {
			return err
		}
		// Three design iterations, all in-progress.
		for i := 1; i <= 3; i++ {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			if err := nv.Modify(tx, func(x *Part) { x.Rev = i }); err != nil {
				return err
			}
			if err := nv.Annotate(tx, "state", "in-progress"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Qualification passes on Rev 2: promote it and build the release
	// context from the annotation partition.
	if err := db.Update(func(tx *Tx) error {
		versions, err := p.Versions(tx)
		if err != nil {
			return err
		}
		var chosen VPtr[Part]
		for _, v := range versions {
			val, err := v.Deref(tx)
			if err != nil {
				return err
			}
			if val.Rev == 2 {
				chosen = v
			}
		}
		if err := chosen.Annotate(tx, "state", "released"); err != nil {
			return err
		}
		rel, err := tx.VersionsWhere(p.OID(), "state", "released")
		if err != nil || len(rel) != 1 {
			return err
		}
		return tx.SetContext("release", map[OID]VID{p.OID(): rel[0]})
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		v, err := tx.ResolveInContext("release", p.OID())
		if err != nil {
			return err
		}
		pin := VPtr[Part]{obj: p.OID(), vid: v, ty: parts}
		val, err := pin.Deref(tx)
		if err != nil || val.Rev != 2 {
			t.Fatalf("release resolves to Rev %d", val.Rev)
		}
		tip, _ := p.Deref(tx)
		if tip.Rev != 3 {
			t.Fatalf("tip should be Rev 3, got %d", tip.Rev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
