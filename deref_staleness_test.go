package ode

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ode/internal/storage"
)

// derefAfter is what a fresh View must read of an object after a
// mutation: its latest vid and content, or ErrNoObject.
type derefAfter struct {
	vid     VID
	content []byte
	gone    bool
}

// TestDerefStalenessMatrix warms an object's dereference-cache entry,
// applies one mutation of its latest, and checks that a fresh View
// reads the result: every writer that changes what a Deref returns
// closes the entry. A commit to another object on the same shard
// leaves the entry a hit.
func TestDerefStalenessMatrix(t *testing.T) {
	// Each mutation starts from o with versions v1 ("c1") and v2 ("c2",
	// the latest, derived from v1), and p, an object on another shard
	// when there is one.
	mutations := []struct {
		name   string
		mutate func(tx *Tx, o, p OID, v1, v2 VID) (derefAfter, error)
	}{
		{"NewVersion", func(tx *Tx, o, _ OID, _, _ VID) (derefAfter, error) {
			nv, err := tx.NewVersion(o)
			return derefAfter{vid: nv, content: []byte("c2")}, err
		}},
		{"NewVersionFrom", func(tx *Tx, o, _ OID, v1, _ VID) (derefAfter, error) {
			nv, err := tx.NewVersionFrom(o, v1)
			return derefAfter{vid: nv, content: []byte("c1")}, err
		}},
		{"Set", func(tx *Tx, o, _ OID, _, v2 VID) (derefAfter, error) {
			_, err := tx.UpdateLatestRaw(o, []byte("set"))
			return derefAfter{vid: v2, content: []byte("set")}, err
		}},
		{"UpdateVersion of the latest", func(tx *Tx, o, _ OID, _, v2 VID) (derefAfter, error) {
			err := tx.UpdateVersionRaw(o, v2, []byte("updated"))
			return derefAfter{vid: v2, content: []byte("updated")}, err
		}},
		{"DeleteVersion of the latest", func(tx *Tx, o, _ OID, v1, v2 VID) (derefAfter, error) {
			err := tx.DeleteVersion(o, v2)
			return derefAfter{vid: v1, content: []byte("c1")}, err
		}},
		{"DeleteObject", func(tx *Tx, o, _ OID, _, _ VID) (derefAfter, error) {
			return derefAfter{gone: true}, tx.DeleteObject(o)
		}},
		{"cross-shard Update", func(tx *Tx, o, p OID, _, v2 VID) (derefAfter, error) {
			if _, err := tx.UpdateLatestRaw(p, []byte("other")); err != nil {
				return derefAfter{}, err
			}
			_, err := tx.UpdateLatestRaw(o, []byte("both"))
			return derefAfter{vid: v2, content: []byte("both")}, err
		}},
	}
	for _, shards := range []int{1, 4} {
		for _, m := range mutations {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, m.name), func(t *testing.T) {
				db, o, p, v1, v2 := stalenessDB(t, shards)
				if shards > 1 && storage.SlotOf(uint64(o)) == storage.SlotOf(uint64(p)) {
					t.Fatalf("%v and %v share a shard; the Update would not be cross-shard", o, p)
				}
				warmDeref(t, db, o)
				var want derefAfter
				if err := db.Update(func(tx *Tx) error {
					var err error
					want, err = m.mutate(tx, o, p, v1, v2)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				checkDeref(t, db, o, want)
			})
		}
		// A View pinned before a Set reads o, cold in the cache, after
		// the Set committed: it reads the old content, rightly for its
		// snapshot, and must not leave it cached for later Views.
		t.Run(fmt.Sprintf("shards=%d/View pinned before the commit", shards), func(t *testing.T) {
			db, o, _, _, v2 := stalenessDB(t, shards)
			pinned, committed, read := make(chan struct{}), make(chan struct{}), make(chan error)
			go func() {
				read <- db.View(func(tx *Tx) error {
					close(pinned)
					<-committed
					content, _, err := tx.ReadLatestRaw(o)
					if err == nil && string(content) != "c2" {
						err = fmt.Errorf("pinned View read %q, want c2", content)
					}
					return err
				})
			}()
			<-pinned
			if err := db.Update(func(tx *Tx) error {
				_, err := tx.UpdateLatestRaw(o, []byte("set"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			close(committed)
			if err := <-read; err != nil {
				t.Fatal(err)
			}
			checkDeref(t, db, o, derefAfter{vid: v2, content: []byte("set")})
		})
		t.Run(fmt.Sprintf("shards=%d/commit to another object", shards), func(t *testing.T) {
			db, typ := stalenessOpen(t, shards)
			var o, q OID
			var v VID
			if err := db.Update(func(tx *Tx) error {
				// An Update's allocations stay on the shard of its first.
				var err error
				if o, v, err = tx.CreateRaw(typ, []byte("o")); err != nil {
					return err
				}
				q, _, err = tx.CreateRaw(typ, []byte("q"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if storage.SlotOf(uint64(q)) != storage.SlotOf(uint64(o)) {
				t.Fatalf("%v and %v are on different shards", o, q)
			}
			warmDeref(t, db, o)
			if err := db.Update(func(tx *Tx) error {
				_, err := tx.UpdateLatestRaw(q, []byte("q2"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			before := db.Stats()
			checkDeref(t, db, o, derefAfter{vid: v, content: []byte("o")})
			after := db.Stats()
			if h, m := after.DerefCacheHits-before.DerefCacheHits, after.DerefCacheMisses-before.DerefCacheMisses; h != 1 || m != 0 {
				t.Fatalf("deref after a commit to another object: +%d hits +%d misses, want +1 +0", h, m)
			}
		})
	}

	// Objects moved 2 → 4 → 2, each Set while it was away: an entry
	// warmed before the split must not serve the pre-Set content once
	// the object is back on its first shard.
	t.Run("reshard 2-4-2 with a Set while moved", func(t *testing.T) {
		db, typ := stalenessOpen(t, 2)
		oids := make([]OID, 64)
		for i := range oids {
			if err := db.Update(func(tx *Tx) error {
				var err error
				oids[i], _, err = tx.CreateRaw(typ, []byte("before"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range oids {
			warmDeref(t, db, o)
		}
		if err := db.Reshard(4); err != nil {
			t.Fatal(err)
		}
		if db.ReshardProgress().Objects == 0 {
			t.Fatal("the split moved no object")
		}
		want := make(map[OID]derefAfter, len(oids))
		for _, o := range oids {
			content := []byte(fmt.Sprintf("set %v", o))
			if err := db.Update(func(tx *Tx) error {
				v, err := tx.UpdateLatestRaw(o, content)
				want[o] = derefAfter{vid: v, content: content}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Reshard(2); err != nil {
			t.Fatal(err)
		}
		for _, o := range oids {
			checkDeref(t, db, o, want[o])
		}
	})
}

// stalenessDB opens a database at the given shard count holding o with
// versions v1 ("c1") and v2 ("c2", derived from v1, the latest) and p
// ("p"), created by separate Updates so that at more than one shard the
// allocator puts them on different shards.
func stalenessDB(t *testing.T, shards int) (db *DB, o, p OID, v1, v2 VID) {
	t.Helper()
	db, typ := stalenessOpen(t, shards)
	if err := db.Update(func(tx *Tx) error {
		var err error
		if o, v1, err = tx.CreateRaw(typ, []byte("c1")); err != nil {
			return err
		}
		if v2, err = tx.NewVersion(o); err != nil {
			return err
		}
		_, err = tx.UpdateLatestRaw(o, []byte("c2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, _, err = tx.CreateRaw(typ, []byte("p"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return db, o, p, v1, v2
}

// stalenessOpen opens a database at the given shard count and
// registers the type its objects are created with.
func stalenessOpen(t *testing.T, shards int) (*DB, TypeID) {
	t.Helper()
	db, err := Open(t.TempDir(), &Options{Shards: shards, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	typ, err := db.Engine().RegisterType("StalenessBlob")
	if err != nil {
		t.Fatal(err)
	}
	return db, typ
}

// warmDeref reads o's latest in two Views; the second must be a cache
// hit, so the entry is warm.
func warmDeref(t *testing.T, db *DB, o OID) {
	t.Helper()
	read := func() {
		if err := db.View(func(tx *Tx) error {
			_, _, err := tx.ReadLatestRaw(o)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	read()
	before := db.Stats().DerefCacheHits
	read()
	if db.Stats().DerefCacheHits == before {
		t.Fatalf("second deref of %v missed the cache", o)
	}
}

// checkDeref reads o's latest in a fresh View and compares it with want.
func checkDeref(t *testing.T, db *DB, o OID, want derefAfter) {
	t.Helper()
	var (
		content []byte
		vid     VID
	)
	err := db.View(func(tx *Tx) error {
		var err error
		content, vid, err = tx.ReadLatestRaw(o)
		return err
	})
	switch {
	case want.gone:
		if !errors.Is(err, ErrNoObject) {
			t.Fatalf("deref of deleted %v: (%v, %q, %v), want ErrNoObject", o, vid, content, err)
		}
	case err != nil:
		t.Fatalf("deref of %v: %v", o, err)
	case vid != want.vid || !bytes.Equal(content, want.content):
		t.Fatalf("deref of %v: (%v, %q), want (%v, %q)", o, vid, content, want.vid, want.content)
	}
}
