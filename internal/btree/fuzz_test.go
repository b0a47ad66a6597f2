package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

const fuzzPageSize = 512

// fuzzStore is a small store holding a valid two-level tree (so child
// ids in a fuzzed node may land on real nodes) plus one page whose body
// the fuzzer owns. tracker is the writer view's: nil copies a page on
// every touch, pageSet{} edits the writer's own copies in place.
func fuzzStore(tb testing.TB, body []byte, tracker storage.MutationTracker) (*storage.TxView, oid.PageID) {
	tb.Helper()
	st, err := storage.Create("fuzz.ode", storage.Options{PageSize: fuzzPageSize, FS: faultfs.NewMem()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	v := st.OpenWriter(tracker)
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

// checkTable holds the entry-offset table over a node body to the
// checked walk it is built with: it is built exactly when the walk gets
// through every entry, and then holds each entry's start, none past the
// body. On a node the reference decoder also parses, with keys in
// strictly ascending order, a binary search over the table must stop
// where the reference model's search does, for every key in the node,
// for keys just beside each, and for key.
func checkTable(t *testing.T, b, key []byte) {
	at, ok := offsets(b, nil)
	c := openNode(b)
	walk, wok := []uint16{uint16(c.off)}, true
	for wok && c.n > 0 {
		if _, _, wok = c.next(); wok {
			walk = append(walk, uint16(c.off))
		}
	}
	if ok != wok {
		t.Fatalf("table built: %v; walk got through: %v", ok, wok)
	}
	if !ok {
		return
	}
	if !slices.Equal(at, walk) || int(at[len(at)-1]) > len(b) {
		t.Fatalf("table %v, walk %v over a %d-byte body", at, walk, len(b))
	}
	n, err := decodeNode(b)
	if err != nil {
		return
	}
	for i := 1; i < len(n.keys); i++ {
		if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
			return
		}
	}
	probes := [][]byte{nil, key}
	for _, k := range n.keys {
		probes = append(probes, k, append(k[:len(k):len(k)], 0))
		if len(k) > 0 {
			probes = append(probes, k[:len(k)-1])
		}
	}
	c = openNode(b)
	c.at = at
	for _, k := range probes {
		p := c.seek(k)
		i, found := search(n.keys, k)
		if found {
			i++
		}
		if p.n != i || p.exact != found {
			t.Fatalf("seek(%x) stops after %d entries (exact %v); the model after %d (%v)", k, p.n, p.exact, i, found)
		}
		switch {
		case !c.leaf:
			var prev []byte
			if i > 0 {
				prev = binary.BigEndian.AppendUint32(nil, uint32(n.children[i-1]))
			}
			if pageID(p.v) != n.children[i] || !bytes.Equal(p.prev, prev) {
				t.Fatalf("seek(%x) in a branch: child %d, left %x; the model: %d, %x", k, pageID(p.v), p.prev, n.children[i], prev)
			}
		case i > 0 && (!bytes.Equal(p.k, n.keys[i-1]) || !bytes.Equal(p.v, n.vals[i-1])):
			t.Fatalf("seek(%x) in a leaf: %x=%x; the model: %x=%x", k, p.k, p.v, n.keys[i-1], n.vals[i-1])
		}
	}
}

// checkEdit applies one store or cut, chosen by sel, to the node body
// installs — on the writer's own page with pageSet{}, on the copy a
// first touch makes with nil — and holds the table the edit derives to
// what the edited bytes build. A store that splits the node leaves its
// table to be built later, and is not checked.
func checkEdit(t *testing.T, body, key, val []byte, sel byte, tracker storage.MutationTracker) {
	v, root := fuzzStore(t, body, tracker)
	tr := Open(v, root)
	pg, c, err := tr.openIndexed(root, 0)
	if err != nil {
		return
	}
	i, right := int(sel>>2)%(c.n+1), oid.NilPage
	if sel&3 == 3 && c.n > 0 {
		i %= c.n
		err = tr.cutEntry(pg, &c, i, !c.leaf && i == 0 && sel&0x80 != 0)
	} else {
		drop := int(sel & 1)
		if i == c.n {
			drop = 0
		}
		if !c.leaf {
			val = branchVal(oid.PageID(sel))
		}
		_, right, err = tr.store(pg, &c, i, drop, key, val)
	}
	if err != nil || right != oid.NilPage {
		return
	}
	live, err := v.GetTyped(root, storage.PageBTree)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.Offsets(live, func([]byte, []uint16) ([]uint16, bool) { return nil, false })
	want, wok := offsets(live.Body(), nil)
	if !ok || !wok || !slices.Equal(got, want) {
		t.Fatalf("edit %#x at entry %d: the table %v (current %v), the bytes build %v (%v)", sel, i, got, ok, want, wok)
	}
}

// FuzzBTreeNode installs arbitrary bytes as a node and runs every
// operation over it: each returns a result or an error — never a panic,
// an out-of-range slice or a walk that does not end — and what a
// mutation leaves behind can still be read the same way. The node's
// entry-offset table must agree with the walk and the reference model
// (checkTable), and an edit must derive the table its result builds
// (checkEdit).
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
		node := make([]byte, fuzzPageSize-storage.HeaderSize) // the body as fuzzStore installs it
		copy(node, body)
		checkTable(t, node, key)
		sel := byte(len(body))
		if len(key) > 0 {
			sel ^= key[len(key)-1]
		}
		checkEdit(t, body, key, val, sel, nil)
		checkEdit(t, body, key, val, sel, pageSet{})
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
			v, root := fuzzStore(t, body, nil)
			tr := Open(v, root)
			read(tr)
			_ = mutate(tr) // any error is fine; reading on must still be safe
			read(tr)
		}
	})
}
