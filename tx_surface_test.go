package ode

// Surface tests for the Tx facade: every public wrapper is exercised
// through the public API at least once (semantics are tested in depth
// in internal/core; these catch wiring mistakes in the facade).

import (
	"strings"
	"testing"
)

func TestTxFacadeSurface(t *testing.T) {
	db := openDB(t, &Options{DeltaTier: true})
	parts, _ := Register[Part](db, "Part")
	var p Ptr[Part]
	var v0, v1 VPtr[Part]
	var stamp0 Stamp

	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = parts.Create(tx, &Part{Name: "root"})
		if err != nil {
			return err
		}
		v0, err = p.Pin(tx)
		if err != nil {
			return err
		}
		stamp0 = tx.CurrentStamp()
		v1, err = p.NewVersion(tx)
		if err != nil {
			return err
		}
		// Configuration + context through the Tx facade.
		if err := tx.SaveConfig("facade", []Binding{
			{Slot: "only", Obj: p.OID(), VID: v0.VID()},
		}); err != nil {
			return err
		}
		return tx.SetContext("facade-ctx", map[OID]VID{p.OID(): v0.VID()})
	}); err != nil {
		t.Fatal(err)
	}

	if err := db.View(func(tx *Tx) error {
		// Owner / Tnext / Leaves / AsOf / Render.
		owner, err := tx.Owner(v0.VID())
		if err != nil || owner != p.OID() {
			t.Fatalf("Owner: %v %v", owner, err)
		}
		tn, err := tx.Tnext(p.OID(), v0.VID())
		if err != nil || tn != v1.VID() {
			t.Fatalf("Tnext: %v %v", tn, err)
		}
		leaves, err := tx.Leaves(p.OID())
		if err != nil || len(leaves) != 1 || leaves[0] != v1.VID() {
			t.Fatalf("Leaves: %v %v", leaves, err)
		}
		at, ok, err := tx.AsOf(p.OID(), stamp0)
		if err != nil || !ok || at != v0.VID() {
			t.Fatalf("AsOf: %v %v %v", at, ok, err)
		}
		graph, err := tx.Render(p.OID())
		if err != nil || !strings.Contains(graph, "derived-from:") {
			t.Fatalf("Render: %q %v", graph, err)
		}
		// Ptr-level Leaves and AsOf.
		pl, err := p.Leaves(tx)
		if err != nil || len(pl) != 1 {
			t.Fatalf("Ptr.Leaves: %v %v", pl, err)
		}
		pa, ok, err := p.AsOf(tx, stamp0)
		if err != nil || !ok || pa.VID() != v0.VID() {
			t.Fatalf("Ptr.AsOf: %v %v %v", pa, ok, err)
		}
		// VPtr.Tnext.
		vn, err := v0.Tnext(tx)
		if err != nil || vn.VID() != v1.VID() {
			t.Fatalf("VPtr.Tnext: %v %v", vn, err)
		}
		// Config facade reads.
		bs, ok, err := tx.GetConfig("facade")
		if err != nil || !ok || len(bs) != 1 || bs[0].Slot != "only" {
			t.Fatalf("GetConfig: %v %v %v", bs, ok, err)
		}
		rs, err := tx.ResolveConfig("facade")
		if err != nil || len(rs) != 1 || rs[0].VID != v0.VID() {
			t.Fatalf("ResolveConfig: %v %v", rs, err)
		}
		names, err := tx.Configs()
		if err != nil || len(names) != 1 {
			t.Fatalf("Configs: %v %v", names, err)
		}
		// Context facade reads.
		m, ok, err := tx.GetContext("facade-ctx")
		if err != nil || !ok || m[p.OID()] != v0.VID() {
			t.Fatalf("GetContext: %v %v %v", m, ok, err)
		}
		rv, err := tx.ResolveInContext("facade-ctx", p.OID())
		if err != nil || rv != v0.VID() {
			t.Fatalf("ResolveInContext: %v %v", rv, err)
		}
		ctxs, err := tx.Contexts()
		if err != nil || len(ctxs) != 1 {
			t.Fatalf("Contexts: %v %v", ctxs, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Deletion wrappers.
	if err := db.Update(func(tx *Tx) error {
		if err := tx.DeleteConfig("facade"); err != nil {
			return err
		}
		return tx.DeleteContext("facade-ctx")
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		if names, _ := tx.Configs(); len(names) != 0 {
			t.Fatalf("config survived: %v", names)
		}
		if names, _ := tx.Contexts(); len(names) != 0 {
			t.Fatalf("context survived: %v", names)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTriggerScopeFacades(t *testing.T) {
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
	objHits, allHits := 0, 0
	idObj := db.OnObject(p.OID(), OnAny, false, func(Event) { objHits++ })
	idAll := db.OnAll(OnAny, false, func(Event) { allHits++ })
	if err := db.Update(func(tx *Tx) error {
		_, err := p.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if objHits != 1 || allHits != 1 {
		t.Fatalf("scoped triggers: obj=%d all=%d", objHits, allHits)
	}
	db.RemoveTrigger(idObj)
	db.RemoveTrigger(idAll)
	if err := db.Update(func(tx *Tx) error {
		_, err := p.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if objHits != 1 || allHits != 1 {
		t.Fatal("removed triggers still firing")
	}
}

func TestIndexClose(t *testing.T) {
	db := openDB(t, nil)
	parts, _ := Register[Part](db, "Part")
	ix, err := parts.EnsureIndex("byname", func(p *Part) ([]byte, bool) {
		return KeyString(p.Name), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := parts.Create(tx, &Part{Name: "a"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ix.Close() // detach the maintenance trigger; entries stay
	if err := db.Update(func(tx *Tx) error {
		_, err := parts.Create(tx, &Part{Name: "b"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		n, err := ix.Count(tx)
		if err != nil || n != 1 {
			t.Fatalf("closed index maintained: %d %v", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
