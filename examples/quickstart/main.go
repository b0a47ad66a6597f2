// Quickstart: the Ode versioning primitives in one sitting — pnew,
// generic vs specific references, newversion, traversals, and pdelete.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"ode"
)

// Part is an ordinary Go struct; nothing about it declares that it will
// be versioned (version orthogonality: the decision is made per object,
// per call, not per type).
type Part struct {
	Name string
	Rev  int
}

func main() {
	dir, err := os.MkdirTemp("", "ode-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := ode.Open(dir, &ode.Options{DeltaTier: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	parts, err := ode.Register[Part](db, "Part")
	if err != nil {
		log.Fatal(err)
	}

	var p ode.Ptr[Part]   // generic reference: binds to the latest version
	var v0 ode.VPtr[Part] // specific reference: pins one version
	err = db.Update(func(tx *ode.Tx) error {
		// pnew: the object persists by construction; no insert call.
		var err error
		p, err = parts.Create(tx, &Part{Name: "ALU", Rev: 0})
		if err != nil {
			return err
		}
		// Pin today's state before evolving it.
		v0, err = p.Pin(tx)
		return err
	})
	check(err)
	fmt.Printf("created %v, pinned %v\n", p, v0)

	// newversion: the object id re-binds to the new version; the pinned
	// reference keeps seeing the old state.
	err = db.Update(func(tx *ode.Tx) error {
		v1, err := p.NewVersion(tx)
		if err != nil {
			return err
		}
		return v1.Modify(tx, func(x *Part) { x.Rev = 1 })
	})
	check(err)

	err = db.View(func(tx *ode.Tx) error {
		cur, err := p.Deref(tx) // late binding → Rev 1
		if err != nil {
			return err
		}
		old, err := v0.Deref(tx) // early binding → Rev 0
		if err != nil {
			return err
		}
		fmt.Printf("generic deref:  %+v\n", *cur)
		fmt.Printf("specific deref: %+v\n", *old)
		return nil
	})
	check(err)

	// Alternatives: derive a second version from v0 in parallel with the
	// revision above — the derived-from relationship is a tree.
	err = db.Update(func(tx *ode.Tx) error {
		alt, err := v0.NewVersion(tx)
		if err != nil {
			return err
		}
		return alt.Modify(tx, func(x *Part) { x.Name = "ALU-lowpower"; x.Rev = 1 })
	})
	check(err)

	// Traversals: Dprevious (derivation), Tprevious (time), leaves.
	err = db.View(func(tx *ode.Tx) error {
		graph, err := tx.Render(p.OID())
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", graph)
		leaves, err := p.Leaves(tx)
		if err != nil {
			return err
		}
		fmt.Printf("alternative tips: %v\n", leaves)
		for _, leaf := range leaves {
			hist, err := leaf.History(tx)
			if err != nil {
				return err
			}
			fmt.Printf("  history of %v: %v\n", leaf.VID(), hist)
		}
		return nil
	})
	check(err)

	// pdelete(vid): remove one version; the derivation tree splices.
	err = db.Update(func(tx *ode.Tx) error { return v0.Delete(tx) })
	check(err)
	err = db.View(func(tx *ode.Tx) error {
		graph, err := tx.Render(p.OID())
		if err != nil {
			return err
		}
		fmt.Printf("\nafter pdelete(%v):\n%s", v0.VID(), graph)
		return nil
	})
	check(err)

	// pdelete(oid): the object and all versions disappear.
	err = db.Update(func(tx *ode.Tx) error { return p.Delete(tx) })
	check(err)
	st := db.Stats()
	fmt.Printf("\nafter pdelete(oid): objects=%d versions=%d\n", st.Objects, st.Versions)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
