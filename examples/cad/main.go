// CAD design-evolution example: the paper's §5 DMS scenario. An ALU chip
// has three representations — schematic, fault, and timing — built as
// configurations over shared data objects. The design evolves through
// revisions and alternatives; static bindings keep qualified
// representations reproducible while dynamic bindings track the tip;
// a release context freezes a shippable state.
//
//	go run ./examples/cad
package main

import (
	"fmt"
	"log"
	"os"

	"ode"
)

// The three data objects of the DMS example. Each is an ordinary struct.
type (
	// SchematicData is the circuit netlist.
	SchematicData struct {
		Netlist string
		Gates   int
	}
	// Vectors are the test vectors used by fault and timing analysis.
	Vectors struct {
		Patterns []string
	}
	// TimingCommands drive the timing analyser.
	TimingCommands struct {
		Script string
	}
)

func main() {
	dir, err := os.MkdirTemp("", "ode-cad-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := ode.Open(dir, &ode.Options{DeltaTier: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schematics, err := ode.Register[SchematicData](db, "SchematicData")
	check(err)
	vectors, err := ode.Register[Vectors](db, "Vectors")
	check(err)
	timings, err := ode.Register[TimingCommands](db, "TimingCommands")
	check(err)

	// --- initial design state -------------------------------------------
	var schematic ode.Ptr[SchematicData]
	var vecs ode.Ptr[Vectors]
	var tcmd ode.Ptr[TimingCommands]
	var schemA ode.VPtr[SchematicData]
	err = db.Update(func(tx *ode.Tx) error {
		var err error
		schematic, err = schematics.Create(tx, &SchematicData{Netlist: "alu-rev-A", Gates: 1200})
		if err != nil {
			return err
		}
		if schemA, err = schematic.Pin(tx); err != nil {
			return err
		}
		vecs, err = vectors.Create(tx, &Vectors{Patterns: []string{"0000", "1111"}})
		if err != nil {
			return err
		}
		tcmd, err = timings.Create(tx, &TimingCommands{Script: "analyze -corner slow"})
		if err != nil {
			return err
		}

		// Each representation is a configuration (paper §5).
		if err := tx.SaveConfig("alu/schematic", []ode.Binding{
			{Slot: "schematic", Obj: schematic.OID()}, // dynamic
		}); err != nil {
			return err
		}
		if err := tx.SaveConfig("alu/fault", []ode.Binding{
			// The fault run was qualified against schematic rev A: pin it.
			{Slot: "schematic", Obj: schematic.OID(), VID: schemA.VID()},
			{Slot: "vectors", Obj: vecs.OID()}, // vectors track the tip
		}); err != nil {
			return err
		}
		return tx.SaveConfig("alu/timing", []ode.Binding{
			{Slot: "schematic", Obj: schematic.OID()},
			{Slot: "vectors", Obj: vecs.OID()},
			{Slot: "timing", Obj: tcmd.OID()},
		})
	})
	check(err)
	fmt.Println("initial design state created; representations registered")

	// --- design evolution -------------------------------------------------
	// Two revisions of the schematic, and an alternative low-power variant
	// branched from rev A (the derived-from tree, not a linear chain).
	err = db.Update(func(tx *ode.Tx) error {
		revB, err := schematic.NewVersion(tx)
		if err != nil {
			return err
		}
		if err := revB.Modify(tx, func(s *SchematicData) {
			s.Netlist = "alu-rev-B"
			s.Gates = 1180
		}); err != nil {
			return err
		}
		revC, err := revB.NewVersion(tx)
		if err != nil {
			return err
		}
		if err := revC.Modify(tx, func(s *SchematicData) {
			s.Netlist = "alu-rev-C"
			s.Gates = 1150
		}); err != nil {
			return err
		}
		lowPower, err := schemA.NewVersion(tx) // alternative from rev A
		if err != nil {
			return err
		}
		return lowPower.Modify(tx, func(s *SchematicData) {
			s.Netlist = "alu-lowpower-A"
			s.Gates = 1300
		})
	})
	check(err)

	err = db.View(func(tx *ode.Tx) error {
		graph, err := tx.Render(schematic.OID())
		if err != nil {
			return err
		}
		fmt.Printf("\nschematic evolution:\n%s\n", graph)
		leaves, err := schematic.Leaves(tx)
		if err != nil {
			return err
		}
		fmt.Println("alternative designs (leaves of the derived-from tree):")
		for _, leaf := range leaves {
			s, err := leaf.Deref(tx)
			if err != nil {
				return err
			}
			fmt.Printf("  %v: %s (%d gates)\n", leaf.VID(), s.Netlist, s.Gates)
		}
		return nil
	})
	check(err)

	// --- representations resolve per their binding modes ------------------
	err = db.View(func(tx *ode.Tx) error {
		for _, name := range []string{"alu/schematic", "alu/fault", "alu/timing"} {
			rs, err := tx.ResolveConfig(name)
			if err != nil {
				return err
			}
			fmt.Printf("\n%s:\n", name)
			for _, r := range rs {
				fmt.Printf("  %-10s → %v\n", r.Slot, r.VID)
			}
		}
		// The fault representation's schematic is still rev A.
		rs, err := tx.ResolveConfig("alu/fault")
		if err != nil {
			return err
		}
		for _, r := range rs {
			if r.Slot != "schematic" {
				continue
			}
			pinned, err := schematics.Ref(tx, r.Obj)
			if err != nil {
				return err
			}
			_ = pinned
			s, err := schemA.Deref(tx)
			if err != nil {
				return err
			}
			fmt.Printf("\nfault representation still qualified against: %s\n", s.Netlist)
		}
		return nil
	})
	check(err)

	// --- a release context pins defaults ---------------------------------
	err = db.Update(func(tx *ode.Tx) error {
		latestVecs, err := tx.Latest(vecs.OID())
		if err != nil {
			return err
		}
		return tx.SetContext("alu/release-1", map[ode.OID]ode.VID{
			schematic.OID(): schemA.VID(), // ship rev A
			vecs.OID():      latestVecs,
		})
	})
	check(err)
	err = db.View(func(tx *ode.Tx) error {
		v, err := tx.ResolveInContext("alu/release-1", schematic.OID())
		if err != nil {
			return err
		}
		tip, err := tx.Latest(schematic.OID())
		if err != nil {
			return err
		}
		fmt.Printf("\nrelease-1 context: schematic resolves to %v (tip is %v)\n", v, tip)
		// Objects the context does not pin fall back to the tip.
		tv, err := tx.ResolveInContext("alu/release-1", tcmd.OID())
		if err != nil {
			return err
		}
		fmt.Printf("release-1 context: timing commands resolve to tip %v (unpinned)\n", tv)
		return nil
	})
	check(err)

	check(db.CheckIntegrity())
	fmt.Println("\nintegrity check passed")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
