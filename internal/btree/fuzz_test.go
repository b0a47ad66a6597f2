package btree

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

// fuzzStore is a small store holding a valid two-level tree (so child
// ids in a fuzzed node may land on real nodes) plus one page whose body
// the fuzzer owns.
func fuzzStore(tb testing.TB, body []byte) (*storage.TxView, oid.PageID) {
	tb.Helper()
	st, err := storage.Create("fuzz.ode", storage.Options{PageSize: 512, FS: faultfs.NewMem()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	v := st.OpenWriter(nil)
	valid, err := Create(v)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := valid.Put([]byte{'k', byte(i)}, []byte("value")); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := v.Allocate(storage.PageBTree)
	if err != nil {
		tb.Fatal(err)
	}
	b := v.Touch(p).Body()
	clear(b[copy(b, body):])
	return v, p.ID
}

// FuzzBTreeNode installs arbitrary bytes as a node and runs every
// operation over it: each returns a result or an error — never a panic,
// an out-of-range slice or a walk that does not end — and what a
// mutation leaves behind can still be read the same way.
func FuzzBTreeNode(f *testing.F) {
	leaf := func(next uint32, count uint16, entries ...[]byte) []byte {
		b := []byte{1, 0, 0, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(b[offNext:], next)
		binary.BigEndian.PutUint16(b[offCount:], count)
		return append(b, bytes.Join(entries, nil)...)
	}
	f.Add(leaf(0, 2, []byte("\x01a\x02va"), []byte("\x02k\x10\x00")), []byte("k\x10"))                                               // valid leaf
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1}, "\x02k\x10\x00\x00\x00\x02\x02k\x20\x00\x00\x00\x03"...), []byte("k\x18")) // valid branch over the valid tree's pages
	f.Add(leaf(0, 2, []byte("\x01a\x02va"), []byte("\x05kk")), []byte("kk"))                                                         // truncated entry
	f.Add(leaf(0, 900, []byte("\x01a\x01v")), []byte("a"))                                                                           // count overrun
	f.Add(leaf(0, 1, []byte("\xf0\x7fabc")), []byte("abc"))                                                                          // klen past the page
	f.Add(leaf(4, 1, []byte("\x01a\x01v")), []byte("b"))                                                                             // a leaf chained to itself
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 1, 'm', 0, 0, 0, 4}, []byte("z"))                                                  // a branch whose children are itself
	f.Fuzz(func(t *testing.T, body, key []byte) {
		if len(key) > 31 {
			key = key[:31]
		}
		val := bytes.Repeat([]byte{0xAB}, len(body)%62)
		// Errors are as good as results here; only a panic or a hang fails.
		read := func(tr *Tree) {
			tr.Get(key)
			tr.SeekLE(key)
			tr.Max()
			tr.Ascend(key, nil, func(k, v []byte) (bool, error) { return true, nil })
			tr.Check()
		}
		for _, mutate := range []func(*Tree) error{
			func(*Tree) error { return nil },
			func(tr *Tree) error { return tr.Put(key, val) },
			func(tr *Tree) error { _, err := tr.Delete(key); return err },
			func(tr *Tree) error {
				for i := byte(0); i < 40; i++ { // enough to split whatever is there
					if err := tr.Put(append(key[:len(key):len(key)], i), val); err != nil {
						return err
					}
				}
				return nil
			},
		} {
			v, root := fuzzStore(t, body)
			tr := Open(v, root)
			read(tr)
			_ = mutate(tr) // any error is fine; reading on must still be safe
			read(tr)
		}
	})
}
