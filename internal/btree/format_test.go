package btree_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"ode"
	"ode/internal/btree"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

type part struct {
	Name string
	Rev  int
}

// TestDatabaseNodesAreReferenceEncoded pins the promise that the tree's
// bytes did not change when nodes began to be edited in place. A database
// is populated through the public API (creates, version chains, object
// deletes that prune leaves); every B+tree page in its file must then be
// exactly what the reference encoder — the node codec of the commit
// before — writes for that node, so the file is the one that commit's
// binary produces and reads. Reopened, it passes CheckIntegrity and
// serves reads and writes.
func TestDatabaseNodesAreReferenceEncoded(t *testing.T) {
	dir := t.TempDir()
	opts := &ode.Options{Shards: 1, NoSync: true}
	db, err := ode.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := ode.Register[part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	const objects, versions = 1500, 3
	ptrs := make([]ode.Ptr[part], objects)
	for i := 0; i < objects; i += 50 {
		if err := db.Update(func(tx *ode.Tx) error {
			for j := i; j < i+50; j++ {
				p, err := parts.Create(tx, &part{Name: fmt.Sprintf("part-%04d", j)})
				if err != nil {
					return err
				}
				ptrs[j] = p
				for r := 1; r < versions; r++ {
					v, err := p.NewVersion(tx)
					if err != nil {
						return err
					}
					if err := v.Modify(tx, func(x *part) { x.Rev = r }); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a contiguous run so whole leaves of every index empty out.
	if err := db.Update(func(tx *ode.Tx) error {
		for _, p := range ptrs[200:900] {
			if err := p.Delete(tx); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := storage.Open(filepath.Join(dir, txn.ShardDataFileName(0)), storage.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for id := oid.PageID(1); uint64(id) < st.NumPages(); id++ {
		p, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Type() != storage.PageBTree {
			continue
		}
		nodes++
		enc, err := btree.Reencode(p.Body())
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		body := p.Body()
		if !bytes.Equal(body[:len(enc)], enc) || len(bytes.Trim(body[len(enc):], "\x00")) != 0 {
			t.Fatalf("page %d is not what the reference encoder writes for its node", id)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if nodes < 20 {
		t.Fatalf("only %d B+tree pages: the store is too small to say anything", nodes)
	}

	db, err = ode.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if parts, err = ode.Register[part](db, "Part"); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *ode.Tx) error {
		for _, j := range []int{0, 199, 900, objects - 1} {
			got, err := ptrs[j].Deref(tx)
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("part-%04d", j); got.Name != want || got.Rev != versions-1 {
				return fmt.Errorf("object %d reads %+v", j, *got)
			}
			if n, err := ptrs[j].VersionCount(tx); err != nil || n != versions {
				return fmt.Errorf("object %d has %d versions: %v", j, n, err)
			}
			if _, err := ptrs[j].NewVersion(tx); err != nil {
				return err
			}
		}
		if _, err := ptrs[500].Deref(tx); err == nil {
			return fmt.Errorf("deleted object 500 still reads")
		}
		_, err := parts.Create(tx, &part{Name: "new"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
