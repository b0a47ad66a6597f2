// Address-book example: the paper's §2 motivating case for generic and
// specific references. "An address-book object that keeps track of
// current addresses requires references to the latest versions of person
// objects" (generic / late binding); a historical audit instead pins
// specific versions (as-of access — the accounting/legal/financial use
// the paper cites for the temporal relationship).
//
//	go run ./examples/addressbook
package main

import (
	"fmt"
	"log"
	"os"

	"ode"
)

// Person evolves as people move; every move is a new version.
type Person struct {
	Name    string
	Address string
}

// AddressBook holds generic references (OIDs): it always sees current
// addresses without any bookkeeping when people move.
type AddressBook struct {
	Name    string
	Members []ode.OID
}

func main() {
	dir, err := os.MkdirTemp("", "ode-addressbook-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := ode.Open(dir, &ode.Options{DeltaTier: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	people, err := ode.Register[Person](db, "Person")
	check(err)
	books, err := ode.Register[AddressBook](db, "AddressBook")
	check(err)

	// Create three people and an address book referring to them
	// generically.
	var book ode.Ptr[AddressBook]
	var stamps []ode.Stamp // audit points
	err = db.Update(func(tx *ode.Tx) error {
		var members []ode.OID
		for _, pr := range []Person{
			{"Alice", "1 Elm St"},
			{"Bob", "9 Maple Dr"},
			{"Carol", "4 Birch Ln"},
		} {
			p, err := people.Create(tx, &pr)
			if err != nil {
				return err
			}
			members = append(members, p.OID())
		}
		var err error
		book, err = books.Create(tx, &AddressBook{Name: "friends", Members: members})
		if err != nil {
			return err
		}
		stamps = append(stamps, tx.CurrentStamp())
		return nil
	})
	check(err)

	printBook := func(header string) {
		err := db.View(func(tx *ode.Tx) error {
			b, err := book.Deref(tx)
			if err != nil {
				return err
			}
			fmt.Println(header)
			for _, m := range b.Members {
				p, err := people.Ref(tx, m)
				if err != nil {
					return err
				}
				v, err := p.Deref(tx) // generic: latest address
				if err != nil {
					return err
				}
				fmt.Printf("  %-6s %s\n", v.Name, v.Address)
			}
			return nil
		})
		check(err)
	}
	printBook("address book (initial):")

	// People move: each move is a new version of the person. The book is
	// untouched yet always current — that is the point of generic
	// references.
	moves := []struct{ name, addr string }{
		{"Alice", "2 Oak Ave"},
		{"Bob", "7 Cedar Ct"},
		{"Alice", "3 Pine Rd"},
	}
	for _, mv := range moves {
		err = db.Update(func(tx *ode.Tx) error {
			matches, err := people.Select(tx, func(p *Person) bool { return p.Name == mv.name })
			if err != nil {
				return err
			}
			nv, err := matches[0].NewVersion(tx)
			if err != nil {
				return err
			}
			if err := nv.Modify(tx, func(p *Person) { p.Address = mv.addr }); err != nil {
				return err
			}
			stamps = append(stamps, tx.CurrentStamp())
			return nil
		})
		check(err)
	}
	printBook("\naddress book (after three moves, book object untouched):")

	// Historical audit: where did everyone live at each recorded stamp?
	err = db.View(func(tx *ode.Tx) error {
		b, err := book.Deref(tx)
		if err != nil {
			return err
		}
		for i, s := range stamps {
			fmt.Printf("\nas of audit point %d (stamp %v):\n", i, s)
			for _, m := range b.Members {
				p, err := people.Ref(tx, m)
				if err != nil {
					return err
				}
				at, ok, err := p.AsOf(tx, s)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				v, err := at.Deref(tx) // specific: the historical state
				if err != nil {
					return err
				}
				fmt.Printf("  %-6s %s\n", v.Name, v.Address)
			}
		}
		return nil
	})
	check(err)

	// The temporal chain of one person, walked with Tprev.
	err = db.View(func(tx *ode.Tx) error {
		matches, err := people.Select(tx, func(p *Person) bool { return p.Name == "Alice" })
		if err != nil {
			return err
		}
		cur, err := matches[0].Pin(tx)
		if err != nil {
			return err
		}
		fmt.Println("\nAlice's address history (walking Tprevious):")
		for !cur.IsNil() {
			v, err := cur.Deref(tx)
			if err != nil {
				return err
			}
			fmt.Printf("  %v: %s\n", cur.VID(), v.Address)
			cur, err = cur.Tprev(tx)
			if err != nil {
				return err
			}
		}
		return nil
	})
	check(err)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
