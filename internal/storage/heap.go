package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ode/internal/codec"
	"ode/internal/oid"
)

// Record cell encoding inside slotted pages:
//
//	inline:   flags=0x00 | uvarint payloadLen | payload | zero pad to ≥ minCell
//	overflow: flags=0x01 | uvarint totalLen  | u32 firstOverflowPage | pad
//
// Every cell is at least minCell bytes so an in-place update can always
// switch an inline record to the (small) overflow representation without
// moving the record: RIDs are stable for the record's lifetime, which the
// object table and version index rely on.
const (
	cellInline   = 0x00
	cellOverflow = 0x01
	minCell      = 16
)

// Overflow page body layout: [0:4] next page (0 = end), [4:6] chunk
// length, [6:] chunk bytes.
const ovHeader = 6

// ErrNoRecord reports a read of a deleted or never-written record.
var ErrNoRecord = errors.New("storage: no such record")

// HeapState is the heap's cross-transaction space-hunting state. It is
// advisory only (every entry is re-verified before use, and pageWithSpace
// self-heals stale entries), so each Store keeps one that its write
// transactions share; a reader's heap never needs one. A rollback does
// not discard it: Repair re-records the pages the rollback put back and
// forgets the ones it dropped, so the sweep never starts over.
type HeapState struct {
	// space caches known free bytes of slotted pages discovered this
	// session (populated by inserts, updates, deletes, and the sweep),
	// and each page's place in its class list.
	space map[oid.PageID]spaceEntry
	// classes[c] lists the cached pages whose free bytes fall in
	// [c*spaceClass, (c+1)*spaceClass), newest knowledge last, so a hunt
	// for need bytes probes the class of need and upward and never meets
	// the pages — most of a heap of like-sized records — whose remainder
	// is too small for another record.
	classes [][]oid.PageID
	// sweep is the next page id to examine when hunting for space not in
	// the cache; once it passes the end of the file it stays exhausted
	// (new space knowledge then only arrives via deletes).
	sweep     oid.PageID
	sweepDone bool
}

// spaceClass is the width in bytes of one free-space class.
const spaceClass = 128

type spaceEntry struct {
	free int
	at   int // index in classes[free/spaceClass]
}

// NewHeapState returns empty heap space-hunting state.
func NewHeapState() *HeapState {
	return &HeapState{space: make(map[oid.PageID]spaceEntry), sweep: 1}
}

// set records that page id has free bytes of cell space.
func (hs *HeapState) set(id oid.PageID, free int) {
	c := free / spaceClass
	if e, ok := hs.space[id]; ok {
		if e.free/spaceClass == c {
			hs.space[id] = spaceEntry{free, e.at}
			return
		}
		hs.drop(id)
	}
	for len(hs.classes) <= c {
		hs.classes = append(hs.classes, nil)
	}
	hs.space[id] = spaceEntry{free, len(hs.classes[c])}
	hs.classes[c] = append(hs.classes[c], id)
}

// drop forgets page id: the last page of its class takes its place.
func (hs *HeapState) drop(id oid.PageID) {
	e, ok := hs.space[id]
	if !ok {
		return
	}
	list := hs.classes[e.free/spaceClass]
	last := list[len(list)-1]
	list[e.at] = last
	hs.space[last] = spaceEntry{hs.space[last].free, e.at}
	hs.classes[e.free/spaceClass] = list[:len(list)-1]
	delete(hs.space, id)
}

// Repair brings the cache in line with a rollback: restored are the
// live pages it put back to their before-images, forgotten the pages it
// dropped from the file. A restored slotted page's free space is
// recorded afresh; every other restored page and every forgotten one
// leaves the cache. Pages the rollback did not touch keep their
// entries, and the sweep keeps its place: a page it passed either was
// not touched, and is as it found it, or is one of these.
func (hs *HeapState) Repair(restored []*Page, forgotten []oid.PageID) {
	for _, p := range restored {
		if p.Type() == PageSlotted {
			hs.set(p.ID, SlottedFreeSpace(p))
		} else {
			hs.drop(p.ID)
		}
	}
	for _, id := range forgotten {
		hs.drop(id)
	}
}

// Known returns a copy of what the cache knows — each recorded page's
// free bytes — and the next page id its sweep will examine (tests).
func (hs *HeapState) Known() (free map[oid.PageID]int, sweep oid.PageID) {
	free = make(map[oid.PageID]int, len(hs.space))
	for id, e := range hs.space {
		free[id] = e.free
	}
	return free, hs.sweep
}

// Heap is the record heap: variable-length records addressed by stable
// RIDs, with overflow chains for records larger than a page. One store
// has exactly one heap (B+trees use their own page type); each
// transaction binds it through its own TxView.
type Heap struct {
	st *TxView
	hs *HeapState
}

// NewHeap returns a heap over the transaction view st. hs carries the
// space cache across transactions; nil means the store's own (readers
// never hunt for space, so theirs is never touched).
func NewHeap(st *TxView, hs *HeapState) *Heap {
	if hs == nil {
		hs = st.store.heap
	}
	return &Heap{st: st, hs: hs}
}

// maxInlinePayload returns the largest payload storable inline.
func (h *Heap) maxInlinePayload() int {
	// flags + worst-case 5-byte uvarint length prefix.
	return MaxCell(h.st.PageSize()) - 6
}

func encodeInline(data []byte) []byte {
	w := make([]byte, 0, 1+5+len(data)+minCell)
	w = codec.AppendU8(w, cellInline)
	w = codec.AppendUVarint(w, uint64(len(data)))
	w = append(w, data...)
	return padCell(w)
}

// padCell zero-pads a cell to minCell bytes.
func padCell(w []byte) []byte {
	for len(w) < minCell {
		w = append(w, 0)
	}
	return w
}

func encodeOverflow(totalLen int, first oid.PageID) []byte {
	w := make([]byte, 0, minCell)
	w = codec.AppendU8(w, cellOverflow)
	w = codec.AppendUVarint(w, uint64(totalLen))
	w = codec.AppendU32(w, uint32(first))
	return padCell(w)
}

// Insert stores data as a new record and returns its RID.
func (h *Heap) Insert(data []byte) (oid.RID, error) {
	cell, err := h.buildCell(data)
	if err != nil {
		return oid.NilRID, err
	}
	p, err := h.pageWithSpace(len(cell))
	if err != nil {
		return oid.NilRID, err
	}
	p = h.st.Touch(p)
	slot, err := SlottedInsert(p, cell)
	if err != nil {
		return oid.NilRID, fmt.Errorf("storage: insert on page %d: %w", p.ID, err)
	}
	h.hs.set(p.ID, SlottedFreeSpace(p))
	return oid.RID{Page: p.ID, Slot: slot}, nil
}

// buildCell produces the cell bytes for data, writing an overflow chain
// if needed.
func (h *Heap) buildCell(data []byte) ([]byte, error) {
	if len(data) <= h.maxInlinePayload() {
		return encodeInline(data), nil
	}
	first, err := h.writeOverflow(data)
	if err != nil {
		return nil, err
	}
	return encodeOverflow(len(data), first), nil
}

func (h *Heap) writeOverflow(data []byte) (oid.PageID, error) {
	chunkCap := h.st.PageSize() - HeaderSize - ovHeader
	var first oid.PageID
	var prev *Page
	for off := 0; off < len(data); off += chunkCap {
		end := off + chunkCap
		if end > len(data) {
			end = len(data)
		}
		p, err := h.st.Allocate(PageOverflow)
		if err != nil {
			return oid.NilPage, err
		}
		body := p.Body()
		binary.BigEndian.PutUint32(body[0:4], 0)
		binary.BigEndian.PutUint16(body[4:6], uint16(end-off))
		copy(body[ovHeader:], data[off:end])
		if prev != nil {
			prev = h.st.Touch(prev)
			binary.BigEndian.PutUint32(prev.Body()[0:4], uint32(p.ID))
		} else {
			first = p.ID
		}
		prev = p
	}
	return first, nil
}

func (h *Heap) readOverflow(first oid.PageID, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	id := first
	for id != oid.NilPage {
		p, err := h.st.GetTyped(id, PageOverflow)
		if err != nil {
			return nil, err
		}
		body := p.Body()
		n := int(binary.BigEndian.Uint16(body[4:6]))
		if ovHeader+n > len(body) {
			return nil, fmt.Errorf("storage: corrupt overflow page %d (chunk %d)", id, n)
		}
		out = append(out, body[ovHeader:ovHeader+n]...)
		id = oid.PageID(binary.BigEndian.Uint32(body[0:4]))
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

func (h *Heap) freeOverflow(first oid.PageID) error {
	id := first
	for id != oid.NilPage {
		p, err := h.st.GetTyped(id, PageOverflow)
		if err != nil {
			return err
		}
		next := oid.PageID(binary.BigEndian.Uint32(p.Body()[0:4]))
		if err := h.st.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// decodeCell parses a cell, returning the payload. For overflow cells it
// reads the chain.
func (h *Heap) decodeCell(cell []byte) ([]byte, error) {
	r := codec.NewReader(cell)
	flags := r.U8()
	n := int(r.UVarint())
	if r.Err() != nil {
		return nil, fmt.Errorf("storage: corrupt cell: %w", r.Err())
	}
	switch flags {
	case cellInline:
		if r.Remaining() < n {
			return nil, fmt.Errorf("storage: corrupt inline cell: %d < %d", r.Remaining(), n)
		}
		out := make([]byte, n)
		copy(out, r.Raw(n))
		return out, nil
	case cellOverflow:
		first := oid.PageID(r.U32())
		if r.Err() != nil {
			return nil, fmt.Errorf("storage: corrupt overflow cell: %w", r.Err())
		}
		return h.readOverflow(first, n)
	default:
		return nil, fmt.Errorf("storage: unknown cell flags %#x", flags)
	}
}

// cellOverflowHead returns the overflow chain head if the cell is an
// overflow cell, else NilPage.
func cellOverflowHead(cell []byte) oid.PageID {
	if len(cell) == 0 || cell[0] != cellOverflow {
		return oid.NilPage
	}
	r := codec.NewReader(cell[1:])
	_ = r.UVarint()
	return oid.PageID(r.U32())
}

// Read returns a copy of the record at rid.
func (h *Heap) Read(rid oid.RID) ([]byte, error) {
	p, err := h.st.GetTyped(rid.Page, PageSlotted)
	if err != nil {
		return nil, err
	}
	cell, err := SlottedRead(p, rid.Slot)
	if err != nil {
		return nil, fmt.Errorf("%w: %v (%v)", ErrNoRecord, rid, err)
	}
	return h.decodeCell(cell)
}

// Update replaces the record at rid, preserving the RID.
func (h *Heap) Update(rid oid.RID, data []byte) error {
	p, err := h.st.GetTyped(rid.Page, PageSlotted)
	if err != nil {
		return err
	}
	old, err := SlottedRead(p, rid.Slot)
	if err != nil {
		return fmt.Errorf("%w: %v (%v)", ErrNoRecord, rid, err)
	}
	oldChain := cellOverflowHead(old)

	p = h.st.Touch(p)
	// Try inline first when it fits the page; otherwise use overflow.
	if len(data) <= h.maxInlinePayload() {
		cell := encodeInline(data)
		err = SlottedUpdate(p, rid.Slot, cell)
		if err == nil {
			h.hs.set(p.ID, SlottedFreeSpace(p))
			if oldChain != oid.NilPage {
				return h.freeOverflow(oldChain)
			}
			return nil
		}
		if !errors.Is(err, ErrPageFull) {
			return err
		}
		// Fall through to the overflow representation, which always fits
		// because every cell is at least minCell bytes.
	}
	first, err := h.writeOverflow(data)
	if err != nil {
		return err
	}
	cell := encodeOverflow(len(data), first)
	if err := SlottedUpdate(p, rid.Slot, cell); err != nil {
		return fmt.Errorf("storage: overflow cell update on page %d: %w", p.ID, err)
	}
	h.hs.set(p.ID, SlottedFreeSpace(p))
	if oldChain != oid.NilPage {
		return h.freeOverflow(oldChain)
	}
	return nil
}

// Delete removes the record at rid and frees any overflow chain.
func (h *Heap) Delete(rid oid.RID) error {
	p, err := h.st.GetTyped(rid.Page, PageSlotted)
	if err != nil {
		return err
	}
	cell, err := SlottedRead(p, rid.Slot)
	if err != nil {
		return fmt.Errorf("%w: %v (%v)", ErrNoRecord, rid, err)
	}
	chain := cellOverflowHead(cell)
	p = h.st.Touch(p)
	if err := SlottedDelete(p, rid.Slot); err != nil {
		return err
	}
	h.hs.set(p.ID, SlottedFreeSpace(p))
	if chain != oid.NilPage {
		return h.freeOverflow(chain)
	}
	return nil
}

// pageWithSpace finds or allocates a slotted page with at least need
// bytes of cell space.
func (h *Heap) pageWithSpace(need int) (*Page, error) {
	hs := h.hs
	for c := need / spaceClass; c < len(hs.classes); c++ {
		// Newest first. An entry that leaves the list mid-walk is replaced
		// by the list's last, which the walk has already seen.
		for i := len(hs.classes[c]) - 1; i >= 0; i-- {
			id := hs.classes[c][i]
			if hs.space[id].free < need { // the class of need holds both sides of it
				continue
			}
			p, err := h.st.GetTyped(id, PageSlotted)
			if err != nil {
				// The cache is advisory (a rollback repairs it, but
				// nothing else vouches for it): a page that no longer
				// reads as slotted leaves it.
				hs.drop(id)
				continue
			}
			// Re-verify: the cached value is advisory too.
			got := SlottedFreeSpace(p)
			if got >= need {
				return p, nil
			}
			hs.set(id, got)
		}
	}
	if p, err := h.sweepForSpace(need); err != nil {
		return nil, err
	} else if p != nil {
		return p, nil
	}
	return h.st.Allocate(PageSlotted)
}

// sweepForSpace scans up to sweepBudget not-yet-seen pages per call,
// recording their free space, and returns the first with enough room.
func (h *Heap) sweepForSpace(need int) (*Page, error) {
	const sweepBudget = 16
	hs := h.hs
	if hs.sweepDone {
		return nil, nil
	}
	for i := 0; i < sweepBudget; i++ {
		if uint64(hs.sweep) >= h.st.NumPages() {
			hs.sweepDone = true
			return nil, nil
		}
		id := hs.sweep
		hs.sweep++
		p, err := h.st.Get(id)
		if err != nil {
			return nil, err
		}
		if p.Type() != PageSlotted {
			continue
		}
		free := SlottedFreeSpace(p)
		hs.set(id, free)
		if free >= need {
			return p, nil
		}
	}
	return nil, nil
}

// Scan calls fn for every record in the heap in (page, slot) order,
// stopping early if fn returns false. fn receives the decoded payload,
// which it must not retain.
func (h *Heap) Scan(fn func(rid oid.RID, data []byte) (bool, error)) error {
	n := h.st.NumPages()
	for pid := uint64(1); pid < n; pid++ {
		p, err := h.st.Get(oid.PageID(pid))
		if err != nil {
			return err
		}
		if p.Type() != PageSlotted {
			continue
		}
		var slots []uint16
		SlottedSlots(p, func(slot uint16, _ []byte) bool {
			slots = append(slots, slot)
			return true
		})
		for _, slot := range slots {
			cell, err := SlottedRead(p, slot)
			if err != nil {
				return err
			}
			data, err := h.decodeCell(cell)
			if err != nil {
				return err
			}
			ok, err := fn(oid.RID{Page: oid.PageID(pid), Slot: slot}, data)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	return nil
}
