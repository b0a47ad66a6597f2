// Policies example: the paper keeps the versioning kernel minimal and
// argues that change notification, version percolation, and
// checkin/checkout models are *policies* users build from primitives
// and triggers (§1, §2, §7). This example runs all three policies from
// internal/policy over one design database.
//
//	go run ./examples/policies
package main

import (
	"fmt"
	"log"
	"os"

	"ode"
	"ode/internal/policy"
)

// Module is a design unit; Board aggregates modules.
type Module struct {
	Name string
	HDL  string
}

func main() {
	dir, err := os.MkdirTemp("", "ode-policies-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := ode.Open(dir, &ode.Options{DeltaTier: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	modules, err := ode.Register[Module](db, "Module")
	check(err)

	// A three-level composite: board ⊃ cpu ⊃ alu.
	var alu, cpu, board ode.Ptr[Module]
	err = db.Update(func(tx *ode.Tx) error {
		var err error
		if alu, err = modules.Create(tx, &Module{Name: "alu", HDL: "alu-v0"}); err != nil {
			return err
		}
		if cpu, err = modules.Create(tx, &Module{Name: "cpu", HDL: "cpu-v0"}); err != nil {
			return err
		}
		board, err = modules.Create(tx, &Module{Name: "board", HDL: "board-v0"})
		return err
	})
	check(err)

	// --- policy 1: change notification ------------------------------------
	notifier := policy.NewNotifier(db)
	notifier.WatchObject("release-manager", board.OID(), ode.OnAny)
	notifier.WatchType("audit-log", modules.ID(), ode.On(ode.EvNewVersion))

	// --- policy 2: version percolation -------------------------------------
	perc := policy.NewPercolator(db)
	perc.Declare(cpu.OID(), alu.OID())
	perc.Declare(board.OID(), cpu.OID())
	perc.Enable()

	// One small edit to the ALU...
	err = db.Update(func(tx *ode.Tx) error {
		nv, err := alu.NewVersion(tx)
		if err != nil {
			return err
		}
		return nv.Modify(tx, func(m *Module) { m.HDL = "alu-v1-fixed-carry" })
	})
	check(err)
	check(perc.Err())

	err = db.View(func(tx *ode.Tx) error {
		fmt.Println("after one ALU edit with percolation enabled:")
		for _, p := range []ode.Ptr[Module]{alu, cpu, board} {
			n, err := p.VersionCount(tx)
			if err != nil {
				return err
			}
			v, err := p.Deref(tx)
			if err != nil {
				return err
			}
			fmt.Printf("  %-6s versions=%d\n", v.Name, n)
		}
		return nil
	})
	check(err)
	fmt.Printf("percolation created %d extra versions (the cascade the paper\n", perc.Created())
	fmt.Println("warns about — which is why it is a policy, not a primitive)")

	fmt.Println("\nnotifications delivered synchronously inside the transaction:")
	for _, n := range notifier.Drain("audit-log") {
		fmt.Printf("  audit-log: %v on %v (new version %v)\n", n.Event.Kind, n.Event.Obj, n.Event.VID)
	}
	for _, n := range notifier.Drain("release-manager") {
		fmt.Printf("  release-manager: %v on %v\n", n.Event.Kind, n.Event.Obj)
	}
	perc.Disable()

	// --- policy 3: checkout/checkin workspaces -----------------------------
	fmt.Println("\nORION-style checkout/checkin built over contexts:")
	ws := policy.NewWorkspace(db, "alice")
	err = db.Update(func(tx *ode.Tx) error {
		working, err := ws.Checkout(tx, alu.OID())
		if err != nil {
			return err
		}
		fmt.Printf("  alice checked out %v as private working version %v\n", alu.OID(), working)
		return nil
	})
	check(err)
	// Alice edits privately; the public view is unaffected.
	err = db.Update(func(tx *ode.Tx) error {
		cur, _, err := ws.Read(tx, alu.OID())
		if err != nil {
			return err
		}
		_ = cur
		return ws.Write(tx, alu.OID(), []byte("alu-v2-alice-draft"))
	})
	check(err)
	err = db.View(func(tx *ode.Tx) error {
		private, _, err := ws.Read(tx, alu.OID())
		if err != nil {
			return err
		}
		public, _, err := tx.ReadLatestRaw(alu.OID())
		if err != nil {
			return err
		}
		fmt.Printf("  workspace sees: %.30q\n", private)
		fmt.Printf("  public sees:    %d gob-encoded bytes (unchanged Module)\n", len(public))
		return nil
	})
	check(err)
	// Checkin promotes the draft to the public latest.
	err = db.Update(func(tx *ode.Tx) error {
		promoted, err := ws.Checkin(tx, alu.OID())
		if err != nil {
			return err
		}
		fmt.Printf("  checked in as public version %v\n", promoted)
		return nil
	})
	check(err)
	err = db.View(func(tx *ode.Tx) error {
		public, v, err := tx.ReadLatestRaw(alu.OID())
		if err != nil {
			return err
		}
		fmt.Printf("  public latest is now %v = %.30q\n", v, public)
		graph, err := tx.Render(alu.OID())
		if err != nil {
			return err
		}
		fmt.Printf("\nALU version graph after the whole session:\n%s", graph)
		return nil
	})
	check(err)
	check(db.CheckIntegrity())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
