// Package storage implements the persistent store underneath the Ode
// reproduction: a checksummed page file, a buffer pool, slotted record
// pages with overflow chains for large records, a free-page list, and a
// superblock holding the roots of every engine structure.
//
// Concurrency model: the transaction layer (internal/txn) serialises
// writers; readers run fully concurrently with the writer by pinning a
// buffer-pool epoch (Store.OpenReader) and resolving pages against
// copy-on-write snapshots, so a page object a reader can reach is never
// mutated. All transactional access goes through a per-transaction
// TxView handle — the Store holds no global transaction state. (The
// paper itself does not discuss concurrency control; this is the
// documented extension.)
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ode/internal/codec"
	"ode/internal/oid"
)

// DefaultPageSize is the page size used unless overridden at creation.
const DefaultPageSize = 4096

// MinPageSize bounds configuration below; slotted arithmetic requires a
// sane minimum.
const MinPageSize = 512

// MaxPageSize bounds configuration above (slot offsets are uint16).
const MaxPageSize = 1 << 16

// PageType tags the role of a page so structural bugs surface as typed
// errors instead of silent corruption.
type PageType uint8

// Page types.
const (
	PageFree     PageType = 0 // on the free list
	PageSuper    PageType = 1 // page 0 only
	PageSlotted  PageType = 2 // record heap page
	PageOverflow PageType = 3 // large-record continuation
	PageBTree    PageType = 4 // B+tree node
)

// String implements fmt.Stringer.
func (t PageType) String() string {
	switch t {
	case PageFree:
		return "free"
	case PageSuper:
		return "super"
	case PageSlotted:
		return "slotted"
	case PageOverflow:
		return "overflow"
	case PageBTree:
		return "btree"
	default:
		return fmt.Sprintf("type%d", uint8(t))
	}
}

// Page header layout. The checksum covers [4:pageSize] and is computed
// when a page is written to stable media (page file or WAL) and verified
// when read back from the page file.
const (
	offChecksum = 0  // u32 CRC-32C
	offType     = 4  // u8 PageType
	offFlags    = 5  // u8 reserved
	offReserved = 6  // u16 reserved
	offPageLSN  = 8  // u64 reserved for LSN bookkeeping
	HeaderSize  = 16 // first byte usable by the page body
)

// ErrChecksum reports a page whose stored CRC does not match its
// contents.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// ErrPageType reports a page whose type tag differs from what the caller
// required.
var ErrPageType = errors.New("storage: unexpected page type")

// Page is an in-memory image of one on-disk page. Data always has
// exactly the store's page size. A Page is owned by the Pool; callers
// mutate Data only via the writable page returned by a writer view's
// Touch (snapshot pages handed to readers are immutable).
type Page struct {
	ID     oid.PageID
	Data   []byte
	dirty  bool
	pinned bool // excluded from eviction (superblock)

	// ref is the page's CLOCK reference bit: a hit sets it, the pool's
	// eviction sweep clears it and passes the page over once. at is the
	// page's index in the pool's resident ring while it is resident.
	// dirty, pinned and at are the pool's, under its mutex.
	ref atomic.Bool
	at  int

	// offs is the page's entry-offset table (TxView.Offsets), nil when
	// none is current; spare is the buffer of a table marked stale, which
	// only the writer touches.
	offs  atomic.Pointer[[]uint16]
	spare *[]uint16
}

// Type returns the page's type tag.
func (p *Page) Type() PageType { return PageType(p.Data[offType]) }

// SetType sets the page's type tag. p must be writable: a page from a
// writer view's Touch or Allocate, or the pool's Install.
func (p *Page) SetType(t PageType) { p.Data[offType] = uint8(t) }

// Body returns the page body after the header. Only a writable page
// (see SetType) may have it mutated.
func (p *Page) Body() []byte { return p.Data[HeaderSize:] }

// Restore overwrites the page image with data — a rollback's
// before-image, or an image Install puts over a resident page — and
// marks its entry-offset table stale.
func (p *Page) Restore(data []byte) {
	copy(p.Data, data)
	p.staleOffsets()
}

// staleOffsets marks the entry-offset table stale before the writer
// changes the page's bytes, keeping its buffer as the spare: the writer
// either writes the edited table into it (SetOffsets) or, where it
// derived none, rebuilds into it on its next search. Only a page
// private to the writer — or one no reader can reach yet — is ever
// marked, so no reader holds the table it retires.
func (p *Page) staleOffsets() {
	if t := p.offs.Swap(nil); t != nil {
		p.spare = t
	}
}

// OffsetBuilder derives a page's entry-offset table from its body,
// appending to buf; ok is false for a body it cannot parse.
type OffsetBuilder func(body []byte, buf []uint16) (offs []uint16, ok bool)

// Offsets returns page p's entry-offset table: a []uint16 derived from
// the page body by build, cached on the page and never written to disk.
// The storage layer does not know what the offsets mean; the page's
// owner (the B+tree) does. A published page's bytes never change, so
// concurrent readers build and share its table through an atomic
// pointer. Only a writer's private page changes, and every change
// comes through Touch, Install or Restore, which mark the table stale.
// A writer that derives the edited table alongside the bytes installs
// it with SetOffsets; any other stale table the writer rebuilds here,
// in place, reusing its buffer. build is the one way a table is derived
// from bytes. ok is false, and nothing is kept, when build fails.
func (v *TxView) Offsets(p *Page, build OffsetBuilder) (offs []uint16, ok bool) {
	if t := p.offs.Load(); t != nil {
		return *t, true
	}
	var t *[]uint16
	if v.write {
		t = p.spare
	}
	inPlace := t != nil
	if !inPlace {
		t = new([]uint16)
	}
	built, ok := build(p.Body(), (*t)[:0])
	if !ok {
		return nil, false
	}
	*t = built
	if inPlace {
		p.spare = nil
		p.offs.Store(t)
		return *t, true
	}
	if !p.offs.CompareAndSwap(nil, t) {
		t = p.offs.Load()
	}
	return *t, true
}

// SetOffsets installs offs as the entry-offset table of p, a page this
// transaction has touched and whose bytes the writer has just edited,
// deriving the table alongside them. offs must be the array of the
// table Touch retired on p (the one the writer searched p with) or one
// nobody else holds — never a published page's table. It reuses the
// retired table's pointer when there is one.
func (v *TxView) SetOffsets(p *Page, offs []uint16) {
	if !v.write || p.offs.Load() != nil {
		panic("storage: SetOffsets on a page the writer has not touched")
	}
	t := p.spare
	if t == nil {
		t = new([]uint16)
	}
	*t = offs
	p.spare = nil
	p.offs.Store(t)
}

// sealChecksum stamps the CRC into buf (a full page image) prior to a
// stable write.
func sealChecksum(buf []byte) {
	sum := codec.Checksum(buf[offType:])
	buf[0] = byte(sum >> 24)
	buf[1] = byte(sum >> 16)
	buf[2] = byte(sum >> 8)
	buf[3] = byte(sum)
}

// verifyChecksum checks the CRC of a full page image read from disk.
func verifyChecksum(buf []byte) error {
	stored := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	if stored != codec.Checksum(buf[offType:]) {
		return ErrChecksum
	}
	return nil
}
