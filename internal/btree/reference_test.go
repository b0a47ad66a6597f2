package btree

// The reference model: the tree as it was before nodes were searched and
// edited in place — every visit decodes the page into a node, every
// change re-encodes it. The differential and format tests drive it
// beside Tree and demand the same answers and the same page bytes.

import (
	"bytes"
	"fmt"

	"ode/internal/codec"
	"ode/internal/oid"
	"ode/internal/storage"
)

type refTree struct {
	st   *storage.TxView
	root oid.PageID
}

func refCreate(st *storage.TxView) (*refTree, error) {
	p, err := st.Allocate(storage.PageBTree)
	if err != nil {
		return nil, err
	}
	t := &refTree{st: st, root: p.ID}
	if err := t.writeNode(p, &node{leaf: true}); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *refTree) maxKey() int  { return t.bodyCap() / 16 }
func (t *refTree) maxVal() int  { return t.bodyCap() / 8 }
func (t *refTree) bodyCap() int { return t.st.PageSize() - storage.HeaderSize }

// node is the decoded form of a B+tree page.
type node struct {
	leaf     bool
	next     oid.PageID   // leaf-chain link (leaves only)
	keys     [][]byte     // sorted
	vals     [][]byte     // leaves: len(vals) == len(keys)
	children []oid.PageID // internal: len(children) == len(keys)+1
}

// --- node (de)serialisation ---

func encodeNode(n *node, capHint int) []byte {
	b := make([]byte, 0, capHint)
	if n.leaf {
		b = codec.AppendU8(b, 1)
		b = codec.AppendU32(b, uint32(n.next))
		b = codec.AppendU16(b, uint16(len(n.keys)))
		for i, k := range n.keys {
			b = codec.AppendBytes32(b, k)
			b = codec.AppendBytes32(b, n.vals[i])
		}
	} else {
		b = codec.AppendU8(b, 0)
		b = codec.AppendU32(b, 0)
		b = codec.AppendU16(b, uint16(len(n.keys)))
		// A node whose last child was just pruned encodes transiently
		// with no children; its parent frees it in the same operation.
		if len(n.children) == 0 {
			b = codec.AppendU32(b, uint32(oid.NilPage))
		} else {
			b = codec.AppendU32(b, uint32(n.children[0]))
		}
		for i, k := range n.keys {
			b = codec.AppendBytes32(b, k)
			b = codec.AppendU32(b, uint32(n.children[i+1]))
		}
	}
	return b
}

func decodeNode(body []byte) (*node, error) {
	// One arena copy of the node body up front: every key and value
	// subslices it, so a decode costs O(1) allocations instead of one
	// per entry (decodes dominate the commit path's allocation profile).
	// The copy also detaches the node from the page buffer exactly like
	// the old per-entry copies did — writeNode may later overwrite the
	// page body in place within the same transaction.
	arena := append([]byte(nil), body...)
	r := codec.NewReader(arena)
	n := &node{}
	n.leaf = r.U8() == 1
	n.next = oid.PageID(r.U32())
	count := int(r.U16())
	if n.leaf {
		n.keys = make([][]byte, count)
		n.vals = make([][]byte, count)
		for i := 0; i < count; i++ {
			n.keys[i] = r.Bytes32()
			n.vals[i] = r.Bytes32()
		}
	} else {
		n.children = make([]oid.PageID, 1, count+1)
		n.children[0] = oid.PageID(r.U32())
		n.keys = make([][]byte, count)
		for i := 0; i < count; i++ {
			n.keys[i] = r.Bytes32()
			n.children = append(n.children, oid.PageID(r.U32()))
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("btree: corrupt node: %w", r.Err())
	}
	return n, nil
}

func (t *refTree) readNode(id oid.PageID) (*node, error) {
	p, err := t.st.GetTyped(id, storage.PageBTree)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(p.Body())
	if err != nil {
		return nil, err
	}
	return n, nil
}

func (t *refTree) writeNode(p *storage.Page, n *node) error {
	enc := encodeNode(n, t.bodyCap())
	if len(enc) > t.bodyCap() {
		return fmt.Errorf("btree: internal error: node %d encodes to %d > %d", p.ID, len(enc), t.bodyCap())
	}
	p = t.st.Touch(p)
	body := p.Body()
	copy(body, enc)
	clear(body[len(enc):])
	return nil
}

func (t *refTree) writeNodeID(id oid.PageID, n *node) error {
	p, err := t.st.GetTyped(id, storage.PageBTree)
	if err != nil {
		return err
	}
	return t.writeNode(p, n)
}

// nodeSize returns the encoded size of n.
func nodeSize(n *node) int {
	return len(encodeNode(n, 256))
}

// --- lookup ---

// Get returns the value for key and whether it is present. The returned
// slice is a copy.
func (t *refTree) Get(key []byte) ([]byte, bool, error) {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return nil, false, err
		}
		if n.leaf {
			i, found := search(n.keys, key)
			if !found {
				return nil, false, nil
			}
			return n.vals[i], true, nil
		}
		id = n.children[childIndex(n.keys, key)]
	}
}

// search returns the index of key in keys (found=true) or the insertion
// point (found=false).
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndex returns which child to descend into for key: the child
// holding keys < keys[i] separators per standard B+tree routing
// (keys[i] is the smallest key reachable via children[i+1]).
func childIndex(keys [][]byte, key []byte) int {
	i, found := search(keys, key)
	if found {
		return i + 1
	}
	return i
}

// --- insert ---

// Put inserts or replaces key's value.
func (t *refTree) Put(key, val []byte) error {
	if len(key) > t.maxKey() {
		return fmt.Errorf("%w: %d > %d", ErrKeyTooLarge, len(key), t.maxKey())
	}
	if len(val) > t.maxVal() {
		return fmt.Errorf("%w: %d > %d", ErrValTooLarge, len(val), t.maxVal())
	}
	sep, right, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if right == oid.NilPage {
		return nil
	}
	// Root split: grow the tree by one level.
	p, err := t.st.Allocate(storage.PageBTree)
	if err != nil {
		return err
	}
	newRoot := &node{
		leaf:     false,
		keys:     [][]byte{sep},
		children: []oid.PageID{t.root, right},
	}
	if err := t.writeNode(p, newRoot); err != nil {
		return err
	}
	t.root = p.ID
	return nil
}

// insert descends into id; on child split it returns the separator key
// and new right sibling for the caller to absorb.
func (t *refTree) insert(id oid.PageID, key, val []byte) ([]byte, oid.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, oid.NilPage, err
	}
	if n.leaf {
		i, found := search(n.keys, key)
		if found {
			n.vals[i] = append([]byte(nil), val...)
		} else {
			n.keys = insertAt(n.keys, i, append([]byte(nil), key...))
			n.vals = insertAt(n.vals, i, append([]byte(nil), val...))
		}
		return t.finishNode(id, n)
	}
	ci := childIndex(n.keys, key)
	sep, right, err := t.insert(n.children[ci], key, val)
	if err != nil {
		return nil, oid.NilPage, err
	}
	if right != oid.NilPage {
		n.keys = insertAt(n.keys, ci, sep)
		n.children = insertAt(n.children, ci+1, right)
	}
	return t.finishNode(id, n)
}

// finishNode writes n back, splitting first if it no longer fits.
func (t *refTree) finishNode(id oid.PageID, n *node) ([]byte, oid.PageID, error) {
	if nodeSize(n) <= t.bodyCap() {
		return nil, oid.NilPage, t.writeNodeID(id, n)
	}
	// Split: left keeps the first half, right gets the rest.
	mid := len(n.keys) / 2
	if mid == 0 {
		mid = 1
	}
	rp, err := t.st.Allocate(storage.PageBTree)
	if err != nil {
		return nil, oid.NilPage, err
	}
	var sep []byte
	var rightN *node
	if n.leaf {
		rightN = &node{
			leaf: true,
			next: n.next,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]byte(nil), n.vals[mid:]...),
		}
		sep = append([]byte(nil), n.keys[mid]...)
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rp.ID
	} else {
		// The median key moves up; it is not duplicated below.
		sep = n.keys[mid]
		rightN = &node{
			leaf:     false,
			keys:     append([][]byte(nil), n.keys[mid+1:]...),
			children: append([]oid.PageID(nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	if err := t.writeNode(rp, rightN); err != nil {
		return nil, oid.NilPage, err
	}
	if err := t.writeNodeID(id, n); err != nil {
		return nil, oid.NilPage, err
	}
	return sep, rp.ID, nil
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// --- delete ---

// Delete removes key, reporting whether it was present. Empty leaves are
// pruned from their parents; an internal root with a single child is
// collapsed.
func (t *refTree) Delete(key []byte) (bool, error) {
	deleted, _, err := t.remove(t.root, key)
	if err != nil || !deleted {
		return deleted, err
	}
	// Collapse trivial root chain.
	for {
		n, err := t.readNode(t.root)
		if err != nil {
			return true, err
		}
		if n.leaf || len(n.children) != 1 {
			return true, nil
		}
		old := t.root
		t.root = n.children[0]
		if err := t.st.Free(old); err != nil {
			return true, err
		}
	}
}

// remove deletes key under id, returning (deleted, nowEmpty).
func (t *refTree) remove(id oid.PageID, key []byte) (bool, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, false, err
	}
	if n.leaf {
		i, found := search(n.keys, key)
		if !found {
			return false, false, nil
		}
		n.keys = removeAt(n.keys, i)
		n.vals = removeAt(n.vals, i)
		if err := t.writeNodeID(id, n); err != nil {
			return false, false, err
		}
		return true, len(n.keys) == 0, nil
	}
	ci := childIndex(n.keys, key)
	deleted, childEmpty, err := t.remove(n.children[ci], key)
	if err != nil || !deleted {
		return deleted, false, err
	}
	if childEmpty {
		// Prune the empty child. Note: pruning a leaf leaves its
		// predecessor's leaf-chain link pointing at a freed page only
		// transiently — we fix the chain below before freeing.
		if err := t.unlinkLeafChain(n, ci); err != nil {
			return true, false, err
		}
		empty := n.children[ci]
		n.children = removeAt(n.children, ci)
		if ci > 0 {
			n.keys = removeAt(n.keys, ci-1)
		} else if len(n.keys) > 0 {
			n.keys = removeAt(n.keys, 0)
		}
		if err := t.st.Free(empty); err != nil {
			return true, false, err
		}
		if err := t.writeNodeID(id, n); err != nil {
			return true, false, err
		}
		return true, len(n.children) == 0, nil
	}
	return true, false, nil
}

// unlinkLeafChain repairs the leaf chain around n.children[ci] before it
// is pruned. Only needed when the child is a leaf; the predecessor leaf
// may live under a different subtree, so we walk from the leftmost leaf.
func (t *refTree) unlinkLeafChain(parent *node, ci int) error {
	child, err := t.readNode(parent.children[ci])
	if err != nil {
		return err
	}
	if !child.leaf {
		return nil
	}
	// Find the leaf whose next pointer is the victim by walking the
	// chain from the tree's leftmost leaf.
	victim := parent.children[ci]
	cur, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	for cur != oid.NilPage && cur != victim {
		cn, err := t.readNode(cur)
		if err != nil {
			return err
		}
		if cn.next == victim {
			cn.next = child.next
			return t.writeNodeID(cur, cn)
		}
		cur = cn.next
	}
	return nil // victim is the leftmost leaf; nothing points at it
}

func (t *refTree) leftmostLeaf() (oid.PageID, error) {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return oid.NilPage, err
		}
		if n.leaf {
			return id, nil
		}
		id = n.children[0]
	}
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// --- iteration ---

// Ascend calls fn for every key in [from, to) in ascending order; nil
// from means from the smallest key, nil to means to the end. Iteration
// stops early if fn returns false. Key and value slices passed to fn are
// owned by the iteration and must be copied if retained.
//
// fn must not mutate the tree.
func (t *refTree) Ascend(from, to []byte, fn func(key, val []byte) (bool, error)) error {
	// Descend to the leaf containing from.
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.leaf {
			break
		}
		if from == nil {
			id = n.children[0]
		} else {
			id = n.children[childIndex(n.keys, from)]
		}
	}
	for id != oid.NilPage {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		start := 0
		if from != nil {
			start, _ = search(n.keys, from)
		}
		for i := start; i < len(n.keys); i++ {
			if to != nil && bytes.Compare(n.keys[i], to) >= 0 {
				return nil
			}
			ok, err := fn(n.keys[i], n.vals[i])
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		from = nil // only the first leaf needs offsetting
		id = n.next
	}
	return nil
}

// SeekLE returns the largest key ≤ key and its value, or ok=false when
// every key in the tree is greater. It runs top-down in O(log n).
func (t *refTree) SeekLE(key []byte) (k, v []byte, ok bool, err error) {
	return t.seekLE(t.root, key)
}

func (t *refTree) seekLE(id oid.PageID, key []byte) ([]byte, []byte, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, nil, false, err
	}
	if n.leaf {
		i, found := search(n.keys, key)
		if found {
			return n.keys[i], n.vals[i], true, nil
		}
		if i == 0 {
			return nil, nil, false, nil
		}
		return n.keys[i-1], n.vals[i-1], true, nil
	}
	// Try the child that would contain key, then fall back leftward: the
	// predecessor, if any, is the maximum of the nearest non-empty
	// subtree to the left.
	for ci := childIndex(n.keys, key); ci >= 0; ci-- {
		k, v, ok, err := t.seekLE(n.children[ci], key)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return k, v, true, nil
		}
	}
	return nil, nil, false, nil
}

// Max returns the largest key in the tree, or ok=false when empty.
func (t *refTree) Max() (k, v []byte, ok bool, err error) {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return nil, nil, false, err
		}
		if n.leaf {
			if len(n.keys) == 0 {
				return nil, nil, false, nil
			}
			last := len(n.keys) - 1
			return n.keys[last], n.vals[last], true, nil
		}
		id = n.children[len(n.children)-1]
	}
}
