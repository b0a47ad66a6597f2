package core

import (
	"encoding/binary"

	"ode/internal/btree"
	"ode/internal/oid"
)

// Named secondary indexes. O++ supports indexed access to extents; this
// reproduction provides named B+trees whose roots are persisted in the
// catalog tree, so higher layers (ode.Index) can maintain content
// indexes over latest versions. The engine only provides the storage
// primitive; maintenance policy lives above, driven by triggers — the
// same mechanism/policy split the paper applies to versioning itself.

const idxRootPrefix = "r:" // catalog key: r:<name> → u32 root page

func idxRootKey(name string) []byte { return append([]byte(idxRootPrefix), name...) }

// indexTree returns the named index's tree, cached per transaction.
// With create=true (write paths) a missing index is created; with
// create=false a missing index yields (nil, nil) and the caller treats
// it as empty — read transactions must never mutate, and historically
// a read-path lookup of an unknown index silently created its tree.
func (tx *shardTx) indexTree(name string, create bool) (*btree.Tree, error) {
	if t, ok := tx.indexes[name]; ok {
		return t, nil
	}
	raw, ok, err := tx.catalog.Get(idxRootKey(name))
	if err != nil {
		return nil, err
	}
	var t *btree.Tree
	if ok {
		t = btree.Open(tx.st, oid.PageID(binary.BigEndian.Uint32(raw)))
	} else {
		if !create {
			return nil, nil
		}
		t, err = btree.Create(tx.st)
		if err != nil {
			return nil, err
		}
		if err := tx.putIndexRoot(name, t.Root()); err != nil {
			return nil, err
		}
	}
	if tx.indexes == nil {
		tx.indexes = make(map[string]*btree.Tree)
	}
	tx.indexes[name] = t
	return t, nil
}

func (tx *shardTx) putIndexRoot(name string, root oid.PageID) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(root))
	if err := tx.catalog.Put(idxRootKey(name), b[:]); err != nil {
		return err
	}
	tx.saveRoots()
	tx.e.idxExist.Store(true)
	return nil
}

// saveIndexRoot persists a root movement after a mutation.
func (tx *shardTx) saveIndexRoot(name string, t *btree.Tree) error {
	raw, ok, err := tx.catalog.Get(idxRootKey(name))
	if err != nil {
		return err
	}
	if ok && oid.PageID(binary.BigEndian.Uint32(raw)) == t.Root() {
		return nil
	}
	return tx.putIndexRoot(name, t.Root())
}

// IndexPut inserts or replaces an entry in a named index, creating the
// index on first use.
func (tx *shardTx) IndexPut(name string, key, val []byte) error {
	t, err := tx.indexTree(name, true)
	if err != nil {
		return err
	}
	if err := t.Put(key, val); err != nil {
		return err
	}
	return tx.saveIndexRoot(name, t)
}

// IndexGet reads one entry from a named index. A missing index reads as
// empty.
func (tx *shardTx) IndexGet(name string, key []byte) ([]byte, bool, error) {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return nil, false, err
	}
	return t.Get(key)
}

// IndexDelete removes an entry, reporting whether it was present.
func (tx *shardTx) IndexDelete(name string, key []byte) (bool, error) {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return false, err
	}
	ok, err := t.Delete(key)
	if err != nil {
		return false, err
	}
	return ok, tx.saveIndexRoot(name, t)
}

// IndexAscend iterates entries in [from, to) order (nil bounds are
// open). A missing index iterates nothing.
func (tx *shardTx) IndexAscend(name string, from, to []byte, fn func(k, v []byte) (bool, error)) error {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return err
	}
	return t.Ascend(from, to, fn)
}

// IndexAscendPrefix iterates all entries whose key has the prefix.
func (tx *shardTx) IndexAscendPrefix(name string, prefix []byte, fn func(k, v []byte) (bool, error)) error {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return err
	}
	return t.AscendPrefix(prefix, fn)
}

// IndexDrop deletes a named index entirely, freeing its pages. Dropping
// an index that does not exist is a no-op.
func (tx *shardTx) IndexDrop(name string) error {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return err
	}
	// Drain the tree so its pages return to the free list, then free the
	// remaining root page by clearing everything via deletes.
	var keys [][]byte
	if err := t.Ascend(nil, nil, func(k, _ []byte) (bool, error) {
		keys = append(keys, append([]byte(nil), k...))
		return true, nil
	}); err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := t.Delete(k); err != nil {
			return err
		}
	}
	if err := tx.st.Free(t.Root()); err != nil {
		return err
	}
	delete(tx.indexes, name)
	if _, err := tx.catalog.Delete(idxRootKey(name)); err != nil {
		return err
	}
	tx.saveRoots()
	return nil
}

// IndexNames lists the named indexes in order.
func (tx *shardTx) IndexNames() ([]string, error) {
	var out []string
	err := tx.catalog.AscendPrefix([]byte(idxRootPrefix), func(k, _ []byte) (bool, error) {
		out = append(out, string(k[len(idxRootPrefix):]))
		return true, nil
	})
	return out, err
}

// IndexLen counts the entries of a named index (O(n)); a missing index
// has length 0.
func (tx *shardTx) IndexLen(name string) (int, error) {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return 0, err
	}
	return t.Len()
}

// IndexCheck validates the named index tree's structural invariants.
func (tx *shardTx) IndexCheck(name string) error {
	t, err := tx.indexTree(name, false)
	if err != nil || t == nil {
		return err
	}
	return t.Check()
}

// IndexNames is the self-transacting convenience form.
func (e *Engine) IndexNames() (out []string, err error) {
	err = e.Read(func(tx *Tx) error {
		out, err = tx.IndexNames()
		return err
	})
	return out, err
}

// IndexLen is the self-transacting convenience form.
func (e *Engine) IndexLen(name string) (n int, err error) {
	err = e.Read(func(tx *Tx) error {
		n, err = tx.IndexLen(name)
		return err
	})
	return n, err
}
