package ode_test

// Godoc examples: runnable documentation for the core API shapes. The
// expected outputs are verified by `go test`.

import (
	"fmt"
	"log"
	"os"

	"ode"
)

// Design is the example domain type.
type Design struct {
	Name string
	Rev  int
}

func tempDB() (*ode.DB, func()) {
	dir, err := os.MkdirTemp("", "ode-example-*")
	if err != nil {
		log.Fatal(err)
	}
	// Shards: 1 — example outputs print raw object/version ids, which
	// only render as o1/v1/v2... under the single-shard layout (sharded
	// layouts compose the shard into the id, oid = raw*N + s).
	db, err := ode.Open(dir, &ode.Options{DeltaTier: true, Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	return db, func() {
		db.Close()
		os.RemoveAll(dir)
	}
}

// Example shows the paper's core semantics: a generic reference (Ptr)
// re-binds to the latest version, a specific reference (VPtr) pins one.
func Example() {
	db, cleanup := tempDB()
	defer cleanup()

	designs, _ := ode.Register[Design](db, "Design")

	var p ode.Ptr[Design]
	var pinned ode.VPtr[Design]
	_ = db.Update(func(tx *ode.Tx) error {
		p, _ = designs.Create(tx, &Design{Name: "alu", Rev: 0}) // pnew
		pinned, _ = p.Pin(tx)
		v1, _ := p.NewVersion(tx) // newversion
		return v1.Modify(tx, func(d *Design) { d.Rev = 1 })
	})
	_ = db.View(func(tx *ode.Tx) error {
		cur, _ := p.Deref(tx)      // late binding
		old, _ := pinned.Deref(tx) // early binding
		fmt.Printf("generic sees rev %d, pinned sees rev %d\n", cur.Rev, old.Rev)
		return nil
	})
	// Output: generic sees rev 1, pinned sees rev 0
}

// ExampleVPtr_NewVersion derives an alternative from a historical
// version: the derived-from relationship is a tree, not a line.
func ExampleVPtr_NewVersion() {
	db, cleanup := tempDB()
	defer cleanup()
	designs, _ := ode.Register[Design](db, "Design")

	_ = db.Update(func(tx *ode.Tx) error {
		p, _ := designs.Create(tx, &Design{Name: "root"})
		v0, _ := p.Pin(tx)
		_, _ = p.NewVersion(tx)  // revision of v0
		_, _ = v0.NewVersion(tx) // alternative, also from v0
		leaves, _ := p.Leaves(tx)
		fmt.Printf("alternatives: %d\n", len(leaves))
		return nil
	})
	// Output: alternatives: 2
}

// ExampleTx_ResolveConfig demonstrates static vs dynamic configuration
// bindings (the paper's §5 representations).
func ExampleTx_ResolveConfig() {
	db, cleanup := tempDB()
	defer cleanup()
	designs, _ := ode.Register[Design](db, "Design")

	_ = db.Update(func(tx *ode.Tx) error {
		p, _ := designs.Create(tx, &Design{Name: "cell"})
		v0, _ := p.Pin(tx)
		_ = tx.SaveConfig("rep", []ode.Binding{
			{Slot: "pinned", Obj: p.OID(), VID: v0.VID()}, // static
			{Slot: "tip", Obj: p.OID()},                   // dynamic
		})
		_, _ = p.NewVersion(tx) // evolve the design
		rs, _ := tx.ResolveConfig("rep")
		for _, r := range rs {
			fmt.Printf("%s -> %v\n", r.Slot, r.VID)
		}
		return nil
	})
	// Output:
	// pinned -> v1
	// tip -> v2
}

// ExamplePtr_AsOf reads a historical state (the paper's
// historical-database motivation).
func ExamplePtr_AsOf() {
	db, cleanup := tempDB()
	defer cleanup()
	designs, _ := ode.Register[Design](db, "Design")

	_ = db.Update(func(tx *ode.Tx) error {
		p, _ := designs.Create(tx, &Design{Rev: 0})
		auditPoint := tx.CurrentStamp()
		v1, _ := p.NewVersion(tx)
		_ = v1.Modify(tx, func(d *Design) { d.Rev = 1 })

		then, _, _ := p.AsOf(tx, auditPoint)
		old, _ := then.Deref(tx)
		now, _ := p.Deref(tx)
		fmt.Printf("then rev %d, now rev %d\n", old.Rev, now.Rev)
		return nil
	})
	// Output: then rev 0, now rev 1
}
