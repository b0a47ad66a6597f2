// Package btree implements a disk-backed B+tree over the storage layer's
// pages. It is the index substrate for the engine: the object table
// (oid → header), the version index ((oid, vid) → record), the temporal
// index ((oid, stamp) → vid), the type catalog, and per-type extents are
// all B+trees.
//
// Keys and values are byte strings ordered by bytes.Compare. Keys and
// values are size-limited (a fraction of the page size) so that every
// node holds several entries; callers index large payloads indirectly by
// storing RIDs as values.
//
// A node is its page body; nothing is decoded (DESIGN.md §15.3):
//
//	leaf u8 | next u32 | count u16 | entries…
//	leaf entry:   uvarint klen | key | uvarint vlen | val
//	branch body:  child0 u32, then entries uvarint klen | key | child u32
//
// Entries are sorted by key; entry i of a branch carries separator i and
// child i+1, a separator being a lower bound of the keys under the child
// beside it. Bytes past the last entry are zero. A lookup binary-searches
// a node through its entry-offset table — where each entry starts, then
// the node's used length — and compares keys where they lie; Ascend
// walks a leaf's entries with a cursor. A mutation touches the page once
// and edits the bytes in place, fitting by arithmetic on the entry's
// size and the used length the table holds, and edits the table with
// them.
//
// The table is derived from the page bytes and never written to disk:
// storage.TxView.Offsets keeps it on the page. A published page never
// changes, so readers build and share its table. A writer's private page
// changes only after Touch has marked its table stale; an edit that keeps
// the node derives the new table from the one it searched with (retable)
// and installs it (storage.TxView.SetOffsets) — in the page's own buffer,
// or in a fresh one after a first-touch copy, never in the published
// page's. Any other change — a split, a new root, a prune mending the
// leaf chain, a rollback's Restore — leaves the table stale, for the
// next search to rebuild in place with offsets, the one builder. Tables
// are built only where a search or a node's end needs one, never by
// Ascend's walk along the leaf chain.
//
// Aliasing rests on what the storage layer guarantees: a page reachable
// from a read view is immutable (writers copy on write), and an evicted
// page buffer is left to the garbage collector, never recycled. So the
// slices Ascend hands its callback point into the page and stay valid
// for that callback. Everything Get, SeekLE and Max return is a copy
// owned by the caller: inside a write transaction a later Put edits the
// live page under any alias.
//
// Every read of a body is bounds-checked; a malformed node yields
// ErrCorrupt, never a panic or an out-of-range slice. Deletion is lazy:
// empty nodes are pruned and the root collapsed, but partially empty
// nodes are not rebalanced.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"ode/internal/oid"
	"ode/internal/storage"
)

// ErrKeyTooLarge reports a key beyond the per-node size budget.
var ErrKeyTooLarge = errors.New("btree: key too large")

// ErrValTooLarge reports a value beyond the per-node size budget.
var ErrValTooLarge = errors.New("btree: value too large")

// ErrCorrupt reports a node whose bytes do not parse, a descent deeper
// than any tree can be, or a leaf chain that is broken or does not end.
var ErrCorrupt = errors.New("btree: corrupt node")

// Tree is a handle on one B+tree. The root page may change across
// mutations; persist Root() after every mutating call (the engine stores
// it in a superblock root slot). A handle holds no node state — every
// operation reads the pages as its view sees them — so handles are free
// to open and several may address one tree within a transaction.
type Tree struct {
	st   *storage.TxView
	root oid.PageID
}

// Node layout.
const (
	offNext   = 1
	offCount  = 5
	hdrSize   = 7 // leaf u8 | next u32 | count u16
	childSize = 4
)

// Descents counts root-to-leaf descents: Reads by Get and SeekLE,
// Writes by Put and Delete. It is an instrument for tests that bound how
// often an engine operation reaches the trees; see CountDescents.
type Descents struct {
	Reads, Writes atomic.Uint64
}

// counting is the installed counter, nil when none is.
var counting atomic.Pointer[Descents]

// CountDescents installs d as the counter every tree in the process
// adds its descents to, until the returned stop is called. One counter
// is installed at a time; a test that installs one must not run in
// parallel with another that does.
func CountDescents(d *Descents) (stop func()) {
	counting.Store(d)
	return func() { counting.Store(nil) }
}

// maxDepth bounds a descent. Height grows only by root splits, and a
// tree of height h has held 2^(h-1) pages; page ids are 32 bits.
const maxDepth = 64

// Create allocates an empty tree (a single empty leaf) and returns it.
func Create(st *storage.TxView) (*Tree, error) {
	p, err := st.Allocate(storage.PageBTree)
	if err != nil {
		return nil, err
	}
	st.Touch(p).Body()[0] = 1
	return &Tree{st: st, root: p.ID}, nil
}

// Open returns a handle on the tree rooted at root.
func Open(st *storage.TxView, root oid.PageID) *Tree {
	return &Tree{st: st, root: root}
}

// Root returns the current root page id.
func (t *Tree) Root() oid.PageID { return t.root }

// MaxValueSize returns the largest value Put accepts; callers with
// larger payloads must indirect through the record heap.
func (t *Tree) MaxValueSize() int { return t.maxVal() }

// maxKey returns the largest permitted key for the store's page size.
func (t *Tree) maxKey() int { return t.bodyCap() / 16 }

// maxVal returns the largest permitted value.
func (t *Tree) maxVal() int { return t.bodyCap() / 8 }

func (t *Tree) bodyCap() int { return t.st.PageSize() - storage.HeaderSize }

// --- nodes in place ---

// cursor walks the entries of one node where they lie in the page body.
// at, when a lookup has loaded it (Tree.index), is the node's
// entry-offset table: at[i] is where entry i starts and at[count] the
// node's used length.
type cursor struct {
	b    []byte
	leaf bool
	off  int // offset of the next unread entry
	n    int // entries not yet read
	at   []uint16
}

// openNode starts a cursor on a node body. No page is smaller than
// storage.MinPageSize, so the header and a branch's first child are there.
func openNode(b []byte) cursor {
	c := cursor{b: b, leaf: b[0] == 1, off: hdrSize, n: int(binary.BigEndian.Uint16(b[offCount:]))}
	if !c.leaf {
		c.off += childSize
	}
	return c
}

// open fetches node id as the view sees it. depth is the number of
// nodes above it on the caller's descent.
func (t *Tree) open(id oid.PageID, depth int) (*storage.Page, cursor, error) {
	if depth > maxDepth {
		return nil, cursor{}, fmt.Errorf("%w: descent passes depth %d at page %d", ErrCorrupt, maxDepth, id)
	}
	p, err := t.st.GetTyped(id, storage.PageBTree)
	if err != nil {
		return nil, cursor{}, err
	}
	return p, openNode(p.Body()), nil
}

// openIndexed is open plus the node's entry-offset table, for the
// callers that search a node or read its end: Ascend's walk along the
// leaf chain never needs one and so never builds one.
func (t *Tree) openIndexed(id oid.PageID, depth int) (*storage.Page, cursor, error) {
	pg, c, err := t.open(id, depth)
	if err == nil {
		var ok bool
		if c.at, ok = t.st.Offsets(pg, offsets); !ok {
			err = corrupt(id)
		}
	}
	return pg, c, err
}

// offsets builds a node's entry-offset table (storage.OffsetBuilder)
// with the checked walk of next, so it fails exactly where the walk
// does; every offset in a table it returns starts an entry that lies
// within the body.
func offsets(body []byte, at []uint16) ([]uint16, bool) {
	c := openNode(body)
	if at == nil {
		// A count the body cannot hold (an entry takes two bytes at
		// least) fails in the walk; it must not size the allocation.
		at = make([]uint16, 0, min(c.n, (len(body)-c.off)/2)+1)
	}
	at = append(at, uint16(c.off))
	for c.n > 0 {
		if _, _, ok := c.next(); !ok {
			return at, false
		}
		at = append(at, uint16(c.off))
	}
	return at, true
}

func corrupt(id oid.PageID) error { return fmt.Errorf("%w: page %d", ErrCorrupt, id) }

// longLength reads a uvarint length prefix of more than one byte at
// b[off:] (next's slow path), returning the offset past it, or -1.
func longLength(b []byte, off int) (l, next int) {
	if off >= len(b) {
		return 0, -1
	}
	u, w := binary.Uvarint(b[off:])
	if w <= 0 || u > uint64(len(b)) {
		return 0, -1
	}
	return int(u), off + w
}

// next reads one entry; the caller has checked c.n > 0. v is the value
// of a leaf entry or the four bytes of a branch entry's child id. Both
// slices alias the body, their capacity clipped so an append copies.
// ok is false when the entry does not lie within the body. The one-byte
// length prefix, the usual case, is read inline: a helper with a slow
// path is past the compiler's inlining budget and costs 15% of a lookup.
func (c *cursor) next() (k, v []byte, ok bool) {
	b, off := c.b, c.off
	var kl int
	if off < len(b) && b[off] < 0x80 {
		kl, off = int(b[off]), off+1
	} else if kl, off = longLength(b, off); off < 0 {
		return nil, nil, false
	}
	if kl > len(b)-off {
		return nil, nil, false
	}
	k = b[off : off+kl : off+kl]
	off += kl
	vl := childSize
	if c.leaf {
		if off < len(b) && b[off] < 0x80 {
			vl, off = int(b[off]), off+1
		} else if vl, off = longLength(b, off); off < 0 {
			return nil, nil, false
		}
	}
	if vl > len(b)-off {
		return nil, nil, false
	}
	v = b[off : off+vl : off+vl]
	c.off = off + vl
	c.n--
	return k, v, true
}

// entry reads the entry at off, which the table says starts an entry
// within the body.
func (c *cursor) entry(off int) (k, v []byte) {
	e := cursor{b: c.b, leaf: c.leaf, off: off}
	k, v, _ = e.next()
	return k, v
}

// used is the node's used length: where its last entry ends.
func (c *cursor) used() int { return int(c.at[len(c.at)-1]) }

// last reads the node's last entry; the node has one.
func (c *cursor) last() (k, v []byte) { return c.entry(int(c.at[len(c.at)-2])) }

// pos is where the search for a key stops in a node: at the last entry
// whose key is ≤ the key. In a branch that entry names the child
// covering the key; in a leaf it is the key's own entry or the one the
// key would follow.
type pos struct {
	n        int    // entries ≤ key; 0 when every entry is greater
	off, end int    // the entry's bytes; the empty range where entries begin when n == 0
	k, v     []byte // the entry; with n == 0, k is nil and v a branch's first child
	prev     []byte // v one entry earlier, the child left of v's; nil when n == 0
	exact    bool   // k equals the key
}

// seek binary-searches the node's entry-offset table for key. Every
// offset in the table starts an entry within the body, so the key at it
// is read unchecked, its one-byte length prefix inline.
func (c *cursor) seek(key []byte) (p pos) {
	b, at := c.b, c.at
	lo, hi := 0, len(at)-1 // entries [0, lo) are ≤ key, [hi, count) greater
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		off := int(at[m])
		kl := int(b[off])
		if kl < 0x80 {
			off++
		} else {
			kl, off = longLength(b, off)
		}
		cmp := bytes.Compare(b[off:off+kl], key)
		if cmp == 0 {
			lo, p.exact = m+1, true
			break
		}
		if cmp < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	p.n = lo
	p.off, p.end = int(at[0]), int(at[0])
	if !c.leaf {
		p.v = c.b[hdrSize:p.off]
	}
	if p.n > 0 {
		if p.prev = p.v; p.n > 1 {
			_, p.prev = c.entry(int(at[p.n-2]))
		}
		p.off, p.end = int(at[p.n-1]), int(at[p.n])
		p.k, p.v = c.entry(p.off)
	}
	return p
}

// leafFor descends to the leaf that covers key and seeks key in it.
// left roots the nearest subtree left of the descent path — the left
// sibling of the lowest node the path did not enter through its first
// child — and is NilPage on the tree's leftmost spine: every key left of
// the leaf lies under it or further left.
func (t *Tree) leafFor(key []byte) (id oid.PageID, c cursor, p pos, left oid.PageID, err error) {
	id = t.root
	for depth := 0; ; depth++ {
		if _, c, err = t.openIndexed(id, depth); err != nil {
			return id, c, p, left, err
		}
		if p = c.seek(key); c.leaf {
			return id, c, p, left, nil
		}
		if p.prev != nil {
			left = pageID(p.prev)
		}
		id = pageID(p.v)
	}
}

func pageID(b []byte) oid.PageID { return oid.PageID(binary.BigEndian.Uint32(b)) }

func setCount(b []byte, n int) { binary.BigEndian.PutUint16(b[offCount:], uint16(n)) }

// branchVal encodes a child id as the value of a branch entry.
func branchVal(id oid.PageID) []byte {
	return binary.BigEndian.AppendUint32(make([]byte, 0, childSize), uint32(id))
}

func entrySize(k, v []byte, leaf bool) int {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(k))) + len(k) + len(v)
	if leaf {
		n += binary.PutUvarint(prefix[:], uint64(len(v)))
	}
	return n
}

// writeEntry encodes one entry at the start of b, which has room.
func writeEntry(b, k, v []byte, leaf bool) {
	off := binary.PutUvarint(b, uint64(len(k)))
	off += copy(b[off:], k)
	if leaf {
		off += binary.PutUvarint(b[off:], uint64(len(v)))
	}
	copy(b[off:], v)
}

// cut removes b[off:end] from a node whose entries end at used, closing
// the gap and zeroing what the tail vacates.
func cut(b []byte, off, end, used int) {
	copy(b[off:], b[end:used])
	clear(b[used-(end-off) : used])
}

// clonePair copies a key and value out of a page in one allocation.
func clonePair(k, v []byte) ([]byte, []byte) {
	buf := make([]byte, len(k)+len(v))
	n := copy(buf, k)
	copy(buf[n:], v)
	return buf[:n:n], buf[n:]
}

// --- lookup ---

// Get returns the value for key and whether it is present. The returned
// slice is a copy.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	if d := counting.Load(); d != nil {
		d.Reads.Add(1)
	}
	_, _, p, _, err := t.leafFor(key)
	if err != nil || !p.exact {
		return nil, false, err
	}
	return append([]byte{}, p.v...), true, nil
}

// SeekLE returns the largest key ≤ key and its value (both copies), or
// ok=false when every key in the tree is greater. It runs top-down in
// O(log n).
func (t *Tree) SeekLE(key []byte) (k, v []byte, ok bool, err error) {
	if d := counting.Load(); d != nil {
		d.Reads.Add(1)
	}
	_, _, p, left, err := t.leafFor(key)
	if err != nil {
		return nil, nil, false, err
	}
	if p.n > 0 {
		k, v = clonePair(p.k, p.v)
		return k, v, true, nil
	}
	// Every key in the covering leaf is greater: its smallest was deleted
	// and key falls in the gap the separator still covers. The answer is
	// the largest key left of the leaf, if there is one.
	if left == oid.NilPage {
		return nil, nil, false, nil
	}
	return t.max(left, 0)
}

// Max returns the largest key in the tree and its value (both copies),
// or ok=false when empty.
func (t *Tree) Max() (k, v []byte, ok bool, err error) {
	return t.max(t.root, 0)
}

// max is Max of the subtree under id.
func (t *Tree) max(id oid.PageID, depth int) ([]byte, []byte, bool, error) {
	_, c, err := t.lastLeaf(id, depth)
	if err != nil || c.n == 0 {
		return nil, nil, false, err
	}
	k, v := clonePair(c.last())
	return k, v, true, nil
}

// lastLeaf descends from id through last children to a leaf, which it
// returns with its entry-offset table.
func (t *Tree) lastLeaf(id oid.PageID, depth int) (*storage.Page, cursor, error) {
	for ; ; depth++ {
		pg, c, err := t.openIndexed(id, depth)
		if err != nil || c.leaf {
			return pg, c, err
		}
		child := c.b[hdrSize:c.off]
		if c.n > 0 {
			_, child = c.last()
		}
		id = pageID(child)
	}
}

// --- insert ---

// Put inserts or replaces key's value.
func (t *Tree) Put(key, val []byte) error {
	if len(key) > t.maxKey() {
		return fmt.Errorf("%w: %d > %d", ErrKeyTooLarge, len(key), t.maxKey())
	}
	if len(val) > t.maxVal() {
		return fmt.Errorf("%w: %d > %d", ErrValTooLarge, len(val), t.maxVal())
	}
	if d := counting.Load(); d != nil {
		d.Writes.Add(1)
	}
	sep, right, err := t.insert(t.root, key, val, 0)
	if err != nil || right == oid.NilPage {
		return err
	}
	// Root split: grow the tree by one level.
	p, err := t.st.Allocate(storage.PageBTree)
	if err != nil {
		return err
	}
	b := t.st.Touch(p).Body()
	setCount(b, 1)
	binary.BigEndian.PutUint32(b[hdrSize:], uint32(t.root))
	writeEntry(b[hdrSize+childSize:], sep, branchVal(right), false)
	t.root = p.ID
	return nil
}

// insert descends into id; on child split it returns the separator key
// and new right sibling for the caller to absorb. The separator is only
// valid until the caller has stored it.
func (t *Tree) insert(id oid.PageID, key, val []byte, depth int) ([]byte, oid.PageID, error) {
	pg, c, err := t.openIndexed(id, depth)
	if err != nil {
		return nil, oid.NilPage, err
	}
	p := c.seek(key)
	if c.leaf {
		if p.exact {
			return t.store(pg, &c, p.n-1, 1, key, val)
		}
		return t.store(pg, &c, p.n, 0, key, val)
	}
	sep, right, err := t.insert(pageID(p.v), key, val, depth+1)
	if err != nil || right == oid.NilPage {
		return nil, oid.NilPage, err
	}
	// The child's work touched no byte of this node, so the cursor and
	// the offsets still describe it.
	return t.store(pg, &c, p.n, 0, sep, branchVal(right))
}

// store puts the entry (k, v) at index i of node pg in place of the
// drop entries there — 1 to replace entry i, 0 to insert before it —
// and splits the node when the result does not fit. c is pg's cursor
// with its table.
func (t *Tree) store(pg *storage.Page, c *cursor, i, drop int, k, v []byte) ([]byte, oid.PageID, error) {
	off, end, used := int(c.at[i]), int(c.at[i+drop]), c.used()
	if used < end {
		// Only a cyclic image can edit a node under its own descent.
		return nil, oid.NilPage, corrupt(pg.ID)
	}
	size := entrySize(k, v, c.leaf)
	grown := used - (end - off) + size
	np := t.st.Touch(pg)
	b := np.Body()
	n := c.n + 1 - drop
	if grown <= len(b) {
		copy(b[off+size:], b[end:used])
		if grown < used {
			clear(b[grown:used])
		}
		writeEntry(b[off:], k, v, c.leaf)
		setCount(b, n)
		t.retable(pg, np, c.at, i, 1-drop, size-(end-off))
		return nil, oid.NilPage, nil
	}
	// Build the over-full node aside, then deal its halves to the pages.
	s := make([]byte, grown)
	copy(s, b[:off])
	writeEntry(s[off:], k, v, c.leaf)
	copy(s[off+size:], b[end:used])
	setCount(s, n)
	return t.split(np, s)
}

// retable installs the table of node np, the page Touch returned for pg
// and whose bytes the writer has just edited, derived from at, the
// table pg was searched with: entries before index i keep their
// offsets, grow entries (1 inserted, 0 replaced, -1 removed) come or go
// at i — an inserted one starting where entry i did — and every later
// entry and the used length move by shift bytes. When Touch handed back
// pg itself, at is the array Touch just retired on it and is edited in
// place (an insertion shifts back to front, as copy does); after a
// first-touch copy at is the published page's table, which readers
// share, and the new one goes into a fresh buffer, with a quarter to
// spare so that the transaction's next insertions into the page reuse it.
func (t *Tree) retable(pg, np *storage.Page, at []uint16, i, grow, shift int) {
	var dst []uint16
	if np == pg {
		dst = at
	}
	n := len(at) + grow
	if cap(dst) < n {
		dst = make([]uint16, n, n+n/4+1)
	}
	dst = dst[:n]
	copy(dst, at[:i+1])
	tail := dst[i+1:]
	copy(tail, at[i+1-grow:])
	for j := range tail {
		tail[j] += uint16(shift)
	}
	t.st.SetOffsets(np, dst)
}

// split deals the over-full node s between pg, which keeps the first
// count/2 entries, and a new right sibling. The separator it returns
// aliases s.
func (t *Tree) split(pg *storage.Page, s []byte) ([]byte, oid.PageID, error) {
	c := openNode(s)
	n := c.n
	mid := max(n/2, 1)
	var sep, v []byte
	leftEnd, ok := 0, n > mid
	for i := 0; ok && i <= mid; i++ {
		leftEnd = c.off
		sep, v, ok = c.next()
	}
	if !ok {
		return nil, oid.NilPage, corrupt(pg.ID)
	}
	// A leaf's right half starts with the entry at mid, whose key is
	// also the separator; a branch's median key moves up instead, its
	// child becoming the right half's first.
	rightHdr, rightFrom := hdrSize, leftEnd
	if !c.leaf {
		rightHdr, rightFrom = hdrSize+childSize, c.off
	}
	b := pg.Body()
	if leftEnd > len(b) || rightHdr+len(s)-rightFrom > len(b) {
		return nil, oid.NilPage, fmt.Errorf("btree: internal error: half of node %d exceeds %d bytes", pg.ID, len(b))
	}
	rp, err := t.st.Allocate(storage.PageBTree)
	if err != nil {
		return nil, oid.NilPage, err
	}
	rb := t.st.Touch(rp).Body()
	copy(rb[rightHdr:], s[rightFrom:])
	copy(b, s[:leftEnd])
	clear(b[leftEnd:])
	setCount(b, mid)
	if c.leaf {
		rb[0] = 1
		copy(rb[offNext:], s[offNext:offCount])
		setCount(rb, n-mid)
		binary.BigEndian.PutUint32(b[offNext:], uint32(rp.ID))
	} else {
		copy(rb[hdrSize:], v)
		setCount(rb, n-mid-1)
	}
	return sep, rp.ID, nil
}

// --- delete ---

// Delete removes key, reporting whether it was present. Empty leaves are
// pruned from their parents; an internal root with a single child is
// collapsed.
func (t *Tree) Delete(key []byte) (bool, error) {
	if d := counting.Load(); d != nil {
		d.Writes.Add(1)
	}
	deleted, _, err := t.remove(t.root, key, oid.NilPage, 0)
	if err != nil || !deleted {
		return deleted, err
	}
	// Collapse trivial root chain.
	for {
		_, c, err := t.open(t.root, 0)
		if err != nil {
			return true, err
		}
		only := pageID(c.b[hdrSize:])
		if c.leaf || c.n != 0 || only == oid.NilPage {
			return true, nil
		}
		old := t.root
		t.root = only
		if err := t.st.Free(old); err != nil {
			return true, err
		}
	}
}

// remove deletes key under id, returning (deleted, nowEmpty). leftSub
// roots the nearest subtree left of the descent path, as in leafFor.
func (t *Tree) remove(id oid.PageID, key []byte, leftSub oid.PageID, depth int) (bool, bool, error) {
	pg, c, err := t.openIndexed(id, depth)
	if err != nil {
		return false, false, err
	}
	n := c.n
	p := c.seek(key)
	if c.leaf && !p.exact {
		return false, false, nil
	}
	if !c.leaf {
		if p.prev != nil {
			leftSub = pageID(p.prev)
		}
		child := pageID(p.v)
		deleted, childEmpty, err := t.remove(child, key, leftSub, depth+1)
		if err != nil || !childEmpty {
			return deleted, false, err
		}
		// Prune the empty child: mend the leaf chain around it, free it,
		// and drop its entry from this node. The child's work touched no
		// byte of this node, so the cursor and the offsets still describe
		// it.
		if err := t.unlinkLeaf(child, leftSub, depth+1); err != nil {
			return true, false, err
		}
		if err := t.st.Free(child); err != nil {
			return true, false, err
		}
	}
	if n == 0 {
		// A branch's only child goes: the caller frees the node.
		binary.BigEndian.PutUint32(t.st.Touch(pg).Body()[hdrSize:], uint32(oid.NilPage))
		return true, true, nil
	}
	// Cut the key's entry, or the one naming the pruned child. When the
	// pruned child is a branch's first, the first separator goes with
	// it and that entry's child becomes the first.
	return true, c.leaf && n == 1, t.cutEntry(pg, &c, max(p.n-1, 0), p.n == 0)
}

// cutEntry removes entry i of node pg, c being pg's cursor with its
// table. With promote, entry i's child first replaces the branch's first
// child.
func (t *Tree) cutEntry(pg *storage.Page, c *cursor, i int, promote bool) error {
	off, end, used := int(c.at[i]), int(c.at[i+1]), c.used()
	if used < end {
		return corrupt(pg.ID) // as in store
	}
	np := t.st.Touch(pg)
	b := np.Body()
	if promote {
		_, v := c.entry(off)
		copy(b[hdrSize:], v)
	}
	cut(b, off, end, used)
	setCount(b, c.n-1)
	t.retable(pg, np, c.at, i, -1, off-end)
	return nil
}

// unlinkLeaf takes leaf victim, about to be pruned, out of the leaf
// chain: its predecessor is the last leaf under leftSub (see remove). A
// victim that is a branch, or the tree's leftmost leaf, has nothing
// pointing at it.
func (t *Tree) unlinkLeaf(victim, leftSub oid.PageID, depth int) error {
	_, vc, err := t.open(victim, depth)
	if err != nil || !vc.leaf || leftSub == oid.NilPage {
		return err
	}
	pg, c, err := t.lastLeaf(leftSub, depth)
	if err != nil {
		return err
	}
	if pageID(c.b[offNext:]) != victim {
		return fmt.Errorf("%w: leaf %d does not precede leaf %d", ErrCorrupt, pg.ID, victim)
	}
	copy(t.st.Touch(pg).Body()[offNext:offCount], vc.b[offNext:])
	return nil
}

// --- iteration ---

// Ascend calls fn for every key in [from, to) in ascending order; nil
// from means from the smallest key, nil to means to the end. Iteration
// stops early if fn returns false. Key and value slices passed to fn
// alias the page: they are owned by the iteration and must be copied if
// retained.
//
// fn must not mutate the tree.
func (t *Tree) Ascend(from, to []byte, fn func(key, val []byte) (bool, error)) error {
	id, c, p, _, err := t.leafFor(from)
	if err != nil {
		return err
	}
	// Start at from's own entry, or the first one past where it would be.
	start, skip := p.end, p.n
	if p.exact {
		start, skip = p.off, p.n-1
	}
	c = openNode(c.b)
	c.off, c.n = start, c.n-skip
	// A chain visits each page at most once.
	for leaves := t.st.NumPages(); ; leaves-- {
		for c.n > 0 {
			k, v, ok := c.next()
			if !ok {
				return corrupt(id)
			}
			if to != nil && bytes.Compare(k, to) >= 0 {
				return nil
			}
			if ok, err := fn(k, v); err != nil || !ok {
				return err
			}
		}
		if id = pageID(c.b[offNext:]); id == oid.NilPage {
			return nil
		}
		if leaves == 0 {
			return fmt.Errorf("%w: leaf chain does not end", ErrCorrupt)
		}
		if _, c, err = t.open(id, 0); err != nil {
			return err
		}
		if !c.leaf {
			return corrupt(id)
		}
	}
}

// AscendPrefix iterates all keys with the given prefix in ascending
// order.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key, val []byte) (bool, error)) error {
	return t.Ascend(prefix, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest key greater than every key with the
// prefix, or nil if the prefix is all 0xFF.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// Len counts the keys in the tree (O(n); used by tests and tools).
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Ascend(nil, nil, func(_, _ []byte) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// Check validates structural invariants (key ordering within and across
// nodes, child counts, leaf-chain consistency) and returns a descriptive
// error on the first violation. Used by tests and odedump.
func (t *Tree) Check() error {
	var prev []byte
	first := true
	return t.Ascend(nil, nil, func(k, _ []byte) (bool, error) {
		if !first && bytes.Compare(prev, k) >= 0 {
			return false, fmt.Errorf("btree: order violation: %q !< %q", prev, k)
		}
		prev = append(prev[:0], k...)
		first = false
		return true, nil
	})
}
