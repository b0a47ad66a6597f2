package core

// TestDMSScenario reproduces the paper's §5 design example (F5 in
// DESIGN.md): an ALU chip with schematic, fault, and timing
// representations, modelled after the DMS design database the authors
// simulated. Representations are configurations over shared data
// objects; design evolution adds versions; static bindings keep old
// representations reproducible while dynamic bindings track the tip.

import (
	"testing"

	"ode/internal/oid"
)

func TestDMSScenario(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	tySchem := mustType(t, e, "SchematicData")
	tyVec := mustType(t, e, "Vectors")
	tyTim := mustType(t, e, "TimingCommands")

	var schematic, vectors, timing oid.OID
	var schemV0, vecV0 oid.VID

	// Initial design state: one version of each data object, and the
	// three representations as configurations (§5: "each representation
	// can be thought of as a configuration").
	w(t, e, func(tx *Tx) error {
		var err error
		schematic, schemV0, err = tx.Create(tySchem, []byte("alu schematic rev A"))
		if err != nil {
			return err
		}
		vectors, vecV0, err = tx.Create(tyVec, []byte("test vectors rev A"))
		if err != nil {
			return err
		}
		timing, _, err = tx.Create(tyTim, []byte("timing commands rev A"))
		if err != nil {
			return err
		}
		// Schematic representation: just the schematic, tracking latest.
		if err := tx.SaveConfig("alu/schematic", []Binding{
			{Slot: "schematic", Obj: schematic},
		}); err != nil {
			return err
		}
		// Fault representation: the schematic it was qualified against is
		// pinned (static); vectors track the latest.
		if err := tx.SaveConfig("alu/fault", []Binding{
			{Slot: "schematic", Obj: schematic, VID: schemV0},
			{Slot: "vectors", Obj: vectors},
		}); err != nil {
			return err
		}
		// Timing representation: schematic data (same object as in the
		// schematic representation), vectors (same as in fault), and the
		// timing commands — all dynamic.
		return tx.SaveConfig("alu/timing", []Binding{
			{Slot: "schematic", Obj: schematic},
			{Slot: "timing", Obj: timing},
			{Slot: "vectors", Obj: vectors},
		})
	})

	// Design evolution: the engineer revises the schematic twice (a
	// revision chain) and derives an alternative vector set.
	var schemV1, schemV2, vecAlt oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		schemV1, err = tx.NewVersion(schematic)
		if err != nil {
			return err
		}
		if err := tx.UpdateVersion(schematic, schemV1, []byte("alu schematic rev B")); err != nil {
			return err
		}
		schemV2, err = tx.NewVersion(schematic)
		if err != nil {
			return err
		}
		if err := tx.UpdateVersion(schematic, schemV2, []byte("alu schematic rev C")); err != nil {
			return err
		}
		vecAlt, err = tx.NewVersionFrom(vectors, vecV0)
		if err != nil {
			return err
		}
		return tx.UpdateVersion(vectors, vecAlt, []byte("test vectors alt B"))
	})

	w(t, e, func(tx *Tx) error {
		// The schematic representation follows the tip.
		rs, err := tx.ResolveConfig("alu/schematic")
		if err != nil {
			return err
		}
		if rs[0].VID != schemV2 {
			t.Fatalf("schematic rep at %v, want tip %v", rs[0].VID, schemV2)
		}
		// The fault representation still sees the schematic it was
		// qualified against (static binding), but the newest vectors.
		rs, err = tx.ResolveConfig("alu/fault")
		if err != nil {
			return err
		}
		byName := map[string]Resolved{}
		for _, r := range rs {
			byName[r.Slot] = r
		}
		if byName["schematic"].VID != schemV0 {
			t.Fatalf("fault rep schematic drifted to %v", byName["schematic"].VID)
		}
		if byName["vectors"].VID != vecAlt {
			t.Fatalf("fault rep vectors = %v, want %v", byName["vectors"].VID, vecAlt)
		}
		content, err := tx.ReadVersion(schematic, byName["schematic"].VID)
		if err != nil || string(content) != "alu schematic rev A" {
			t.Fatalf("pinned schematic content: %q %v", content, err)
		}
		return nil
	})

	// A release context fixes default versions for the whole design
	// (§5: "contexts may also be created to specify default versions").
	w(t, e, func(tx *Tx) error {
		return tx.SetContext("alu/release-1", map[oid.OID]oid.VID{
			schematic: schemV1,
			vectors:   vecV0,
		})
	})
	w(t, e, func(tx *Tx) error {
		v, err := tx.ResolveInContext("alu/release-1", schematic)
		if err != nil || v != schemV1 {
			t.Fatalf("release context schematic = %v, %v", v, err)
		}
		// Objects the context does not pin resolve to their latest.
		v, err = tx.ResolveInContext("alu/release-1", timing)
		if err != nil {
			return err
		}
		latest, _ := tx.Latest(timing)
		if v != latest {
			t.Fatalf("unpinned resolve = %v, want %v", v, latest)
		}
		content, err := tx.ReadVersion(schematic, schemV1)
		if err != nil || string(content) != "alu schematic rev B" {
			t.Fatalf("release content: %q %v", content, err)
		}
		return nil
	})

	// The derivation structure matches the design narrative.
	w(t, e, func(tx *Tx) error {
		hist, err := tx.History(schematic, schemV2)
		if err != nil || len(hist) != 3 {
			t.Fatalf("schematic history = %v, %v", hist, err)
		}
		leaves, err := tx.Leaves(vectors)
		if err != nil || len(leaves) != 1 || leaves[0] != vecAlt {
			// vecV0 has one child (vecAlt), so the only leaf is vecAlt.
			t.Fatalf("vector leaves = %v, %v", leaves, err)
		}
		return tx.CheckAll()
	})
}
