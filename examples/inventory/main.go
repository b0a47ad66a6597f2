// Inventory example: secondary indexes over latest versions — the
// library's rendering of O++'s indexed extent queries. An index is
// maintained by triggers inside each transaction, so it always reflects
// the generic-reference view of the data: the key of an object is the
// key of its *latest* version, and newversion moves objects between
// index buckets automatically.
//
//	go run ./examples/inventory
package main

import (
	"fmt"
	"log"
	"os"

	"ode"
)

// Item is a stocked part.
type Item struct {
	SKU      string
	Location string
	Qty      int
}

func main() {
	dir, err := os.MkdirTemp("", "ode-inventory-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := ode.Open(dir, &ode.Options{DeltaTier: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	items, err := ode.Register[Item](db, "Item")
	check(err)

	// Two indexes: by warehouse location (equality lookups) and by
	// quantity (range scans, order-preserving integer keys).
	byLocation, err := items.EnsureIndex("location", func(i *Item) ([]byte, bool) {
		return ode.KeyString(i.Location), true
	})
	check(err)
	byQty, err := items.EnsureIndex("qty", func(i *Item) ([]byte, bool) {
		return ode.KeyInt(int64(i.Qty)), true
	})
	check(err)

	// Stock the warehouse.
	var widget ode.Ptr[Item]
	err = db.Update(func(tx *ode.Tx) error {
		stock := []Item{
			{"WID-1", "aisle-3", 120},
			{"WID-2", "aisle-3", 4},
			{"GAD-1", "aisle-7", 77},
			{"GAD-2", "aisle-7", 0},
			{"SPK-9", "dock", 950},
		}
		for i, it := range stock {
			p, err := items.Create(tx, &it)
			if err != nil {
				return err
			}
			if i == 0 {
				widget = p
			}
		}
		return nil
	})
	check(err)

	dump := func(header string) {
		err := db.View(func(tx *ode.Tx) error {
			fmt.Println(header)
			hits, err := byLocation.Lookup(tx, ode.KeyString("aisle-3"))
			if err != nil {
				return err
			}
			fmt.Print("  in aisle-3: ")
			for _, h := range hits {
				v, err := h.Deref(tx)
				if err != nil {
					return err
				}
				fmt.Printf("%s(qty=%d) ", v.SKU, v.Qty)
			}
			fmt.Println()
			fmt.Println("  low stock (qty < 10):")
			return byQty.Range(tx, ode.KeyInt(0), ode.KeyInt(10),
				func(_ []byte, p ode.Ptr[Item]) (bool, error) {
					v, err := p.Deref(tx)
					if err != nil {
						return false, err
					}
					fmt.Printf("    %s: %d left in %s\n", v.SKU, v.Qty, v.Location)
					return true, nil
				})
		})
		check(err)
	}
	dump("initial stock:")

	// A stock move is a new version (the paper's versioning, not an
	// in-place overwrite — the history stays auditable). The indexes
	// follow the latest version automatically.
	err = db.Update(func(tx *ode.Tx) error {
		nv, err := widget.NewVersion(tx)
		if err != nil {
			return err
		}
		return nv.Modify(tx, func(i *Item) {
			i.Location = "dock"
			i.Qty = 3
		})
	})
	check(err)
	check(byLocation.Err())
	check(byQty.Err())
	dump("\nafter WID-1 moved to the dock (as a new version):")

	// The old state is still pinned in history.
	err = db.View(func(tx *ode.Tx) error {
		versions, err := widget.Versions(tx)
		if err != nil {
			return err
		}
		old, err := versions[0].Deref(tx)
		if err != nil {
			return err
		}
		fmt.Printf("\nWID-1 history: originally %d units in %s (version %v)\n",
			old.Qty, old.Location, versions[0].VID())
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
