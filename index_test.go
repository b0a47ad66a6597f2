package ode

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

type Employee struct {
	Name string
	Dept string
	Age  int
}

func TestIndexBasicLookup(t *testing.T) {
	db := openDB(t, nil)
	emps, _ := Register[Employee](db, "Employee")
	byDept, err := emps.EnsureIndex("dept", func(e *Employee) ([]byte, bool) {
		return KeyString(e.Dept), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		for i, e := range []Employee{
			{"alice", "eng", 30}, {"bob", "eng", 40},
			{"carol", "sales", 35}, {"dave", "ops", 50},
		} {
			if _, err := emps.Create(tx, &e); err != nil {
				return fmt.Errorf("create %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		hits, err := byDept.Lookup(tx, KeyString("eng"))
		if err != nil {
			return err
		}
		if len(hits) != 2 {
			t.Fatalf("eng lookup: %d hits", len(hits))
		}
		for _, h := range hits {
			v, err := h.Deref(tx)
			if err != nil || v.Dept != "eng" {
				t.Fatalf("hit %v: %+v %v", h, v, err)
			}
		}
		none, err := byDept.Lookup(tx, KeyString("legal"))
		if err != nil || len(none) != 0 {
			t.Fatalf("legal lookup: %d %v", len(none), err)
		}
		n, err := byDept.Count(tx)
		if err != nil || n != 4 {
			t.Fatalf("count: %d %v", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := byDept.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexFollowsLatestVersion(t *testing.T) {
	db := openDB(t, &Options{DeltaTier: true})
	emps, _ := Register[Employee](db, "Employee")
	byDept, err := emps.EnsureIndex("dept", func(e *Employee) ([]byte, bool) {
		return KeyString(e.Dept), true
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Ptr[Employee]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = emps.Create(tx, &Employee{Name: "alice", Dept: "eng"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A new version moves alice to sales: the index must follow the
	// generic reference (latest version), not the old state.
	if err := db.Update(func(tx *Tx) error {
		nv, err := p.NewVersion(tx)
		if err != nil {
			return err
		}
		return nv.Modify(tx, func(e *Employee) { e.Dept = "sales" })
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		eng, _ := byDept.Lookup(tx, KeyString("eng"))
		sales, _ := byDept.Lookup(tx, KeyString("sales"))
		if len(eng) != 0 || len(sales) != 1 {
			t.Fatalf("after move: eng=%d sales=%d", len(eng), len(sales))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deleting the sales version re-binds latest to the eng version; the
	// index must swing back.
	if err := db.Update(func(tx *Tx) error {
		latest, err := tx.Latest(p.OID())
		if err != nil {
			return err
		}
		return tx.DeleteVersion(p.OID(), latest)
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		eng, _ := byDept.Lookup(tx, KeyString("eng"))
		sales, _ := byDept.Lookup(tx, KeyString("sales"))
		if len(eng) != 1 || len(sales) != 0 {
			t.Fatalf("after version delete: eng=%d sales=%d", len(eng), len(sales))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deleting the object removes the entry.
	if err := db.Update(func(tx *Tx) error { return p.Delete(tx) }); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		n, err := byDept.Count(tx)
		if err != nil || n != 0 {
			t.Fatalf("after object delete: %d %v", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := byDept.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexRangeOrder(t *testing.T) {
	db := openDB(t, nil)
	emps, _ := Register[Employee](db, "Employee")
	byAge, err := emps.EnsureIndex("age", func(e *Employee) ([]byte, bool) {
		return KeyInt(int64(e.Age)), true
	})
	if err != nil {
		t.Fatal(err)
	}
	ages := []int{52, 17, -3, 40, 0, 99, 23}
	if err := db.Update(func(tx *Tx) error {
		for _, a := range ages {
			if _, err := emps.Create(tx, &Employee{Name: fmt.Sprintf("p%d", a), Age: a}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := db.View(func(tx *Tx) error {
		return byAge.Range(tx, KeyInt(0), KeyInt(53), func(_ []byte, p Ptr[Employee]) (bool, error) {
			v, err := p.Deref(tx)
			if err != nil {
				return false, err
			}
			got = append(got, v.Age)
			return true, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 17, 23, 40, 52}
	if len(got) != len(want) {
		t.Fatalf("range got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range order %v want %v", got, want)
		}
	}
}

func TestIndexBackfillAndPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	emps, _ := Register[Employee](db, "Employee")
	// Data first, index later: backfill must cover the extent.
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 20; i++ {
			dept := "even"
			if i%2 == 1 {
				dept = "odd"
			}
			if _, err := emps.Create(tx, &Employee{Name: fmt.Sprintf("e%d", i), Dept: dept}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	byDept, err := emps.EnsureIndex("dept", func(e *Employee) ([]byte, bool) {
		return KeyString(e.Dept), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		hits, err := byDept.Lookup(tx, KeyString("odd"))
		if err != nil || len(hits) != 10 {
			t.Fatalf("backfill: %d %v", len(hits), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: entries persist, backfill is skipped, maintenance resumes.
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	emps2, _ := Register[Employee](db2, "Employee")
	byDept2, err := emps2.EnsureIndex("dept", func(e *Employee) ([]byte, bool) {
		return KeyString(e.Dept), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Update(func(tx *Tx) error {
		_, err := emps2.Create(tx, &Employee{Name: "new", Dept: "odd"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db2.View(func(tx *Tx) error {
		hits, err := byDept2.Lookup(tx, KeyString("odd"))
		if err != nil || len(hits) != 11 {
			t.Fatalf("after reopen: %d %v", len(hits), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialIndex(t *testing.T) {
	db := openDB(t, nil)
	emps, _ := Register[Employee](db, "Employee")
	adults, err := emps.EnsureIndex("adults", func(e *Employee) ([]byte, bool) {
		if e.Age < 18 {
			return nil, false
		}
		return KeyString(e.Name), true
	})
	if err != nil {
		t.Fatal(err)
	}
	var kid Ptr[Employee]
	if err := db.Update(func(tx *Tx) error {
		var err error
		if _, err = emps.Create(tx, &Employee{Name: "adult", Age: 30}); err != nil {
			return err
		}
		kid, err = emps.Create(tx, &Employee{Name: "kid", Age: 10})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		n, err := adults.Count(tx)
		if err != nil || n != 1 {
			t.Fatalf("partial count: %d %v", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The kid grows up: a new version crosses the predicate boundary and
	// must enter the index.
	if err := db.Update(func(tx *Tx) error {
		nv, err := kid.NewVersion(tx)
		if err != nil {
			return err
		}
		return nv.Modify(tx, func(e *Employee) { e.Age = 18 })
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		n, _ := adults.Count(tx)
		if n != 2 {
			t.Fatalf("after growing up: %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexRollsBackWithTransaction(t *testing.T) {
	db := openDB(t, nil)
	emps, _ := Register[Employee](db, "Employee")
	byDept, err := emps.EnsureIndex("dept", func(e *Employee) ([]byte, bool) {
		return KeyString(e.Dept), true
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	err = db.Update(func(tx *Tx) error {
		if _, err := emps.Create(tx, &Employee{Name: "ghost", Dept: "eng"}); err != nil {
			return err
		}
		return boom
	})
	if err == nil {
		t.Fatal("abort swallowed")
	}
	if err := db.View(func(tx *Tx) error {
		hits, err := byDept.Lookup(tx, KeyString("eng"))
		if err != nil || len(hits) != 0 {
			t.Fatalf("aborted index entry visible: %d %v", len(hits), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Index still works after the abort.
	if err := db.Update(func(tx *Tx) error {
		_, err := emps.Create(tx, &Employee{Name: "real", Dept: "eng"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		hits, _ := byDept.Lookup(tx, KeyString("eng"))
		if len(hits) != 1 {
			t.Fatalf("post-abort maintenance broken: %d", len(hits))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := byDept.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexDrop(t *testing.T) {
	db := openDB(t, nil)
	emps, _ := Register[Employee](db, "Employee")
	ix, err := emps.EnsureIndex("tmp", func(e *Employee) ([]byte, bool) {
		return KeyString(e.Name), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		if _, err := emps.Create(tx, &Employee{Name: "x"}); err != nil {
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return ix.Drop(tx) }); err != nil {
		t.Fatal(err)
	}
	// Mutations after Drop no longer touch the index.
	if err := db.Update(func(tx *Tx) error {
		_, err := emps.Create(tx, &Employee{Name: "y"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	names, err := db.Engine().IndexNames()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		t.Fatalf("index survived drop: %s", n)
	}
}

func TestIndexKeyEscapingQuick(t *testing.T) {
	// Escaping must round-trip and preserve byte order exactly.
	rt := func(key []byte) bool {
		entry := indexEntryKey(key, OID(42))
		got, err := unescapeIndexKey(entry)
		return err == nil && bytes.Equal(got, key)
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Fatal(err)
	}
	ord := func(a, b []byte) bool {
		ea, eb := escapeIndexKey(a), escapeIndexKey(b)
		return (bytes.Compare(a, b) < 0) == (bytes.Compare(ea, eb) < 0) &&
			(bytes.Compare(a, b) == 0) == (bytes.Compare(ea, eb) == 0)
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyHelpersOrdering(t *testing.T) {
	if bytes.Compare(KeyInt(-5), KeyInt(3)) >= 0 {
		t.Fatal("KeyInt sign ordering broken")
	}
	if bytes.Compare(KeyInt(-5), KeyInt(-2)) >= 0 {
		t.Fatal("KeyInt negative ordering broken")
	}
	if bytes.Compare(KeyUint(1), KeyUint(256)) >= 0 {
		t.Fatal("KeyUint ordering broken")
	}
	if string(KeyString("abc")) != "abc" {
		t.Fatal("KeyString identity broken")
	}
}
