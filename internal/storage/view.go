package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"ode/internal/oid"
)

// ErrTxDone reports use of a transaction handle after its closure
// returned (a *Tx that escaped View/Update, or a double Close).
var ErrTxDone = errors.New("ode: transaction has ended (handle escaped its closure?)")

// TxView is a per-transaction handle onto the store. All page and
// superblock access during a transaction goes through one: a writer view
// (OpenWriter) mutates live pages via copy-on-write Touch and carries
// the transaction's MutationTracker; a reader view (OpenReader) pins the
// current epoch and resolves every page — and its superblock decode —
// against that epoch's snapshots, so it observes exactly the committed
// state at its start no matter what writers do concurrently. Any number
// of further handles can Share one reader view's pin and decode.
//
// Replacing the old process-global Store.SetTracker seam, the handle is
// the transaction identity: it is created by the transaction layer,
// threaded through heap/btree/engine code, and dies with the
// transaction (Close flips done; later calls return ErrTxDone).
type TxView struct {
	store   *Store
	tracker MutationTracker // nil for readers
	epoch   uint64          // pinned epoch (readers only)
	rsuper  *super          // superblock decode at epoch (readers only; immutable)
	write   bool
	done    atomic.Bool
	// ended is set on a Share only: the flag of the transaction it was
	// made for, which ends all of that transaction's shares with one
	// store. A share holds no pin of its own.
	ended *atomic.Bool
}

// OpenWriter creates the writer view for a transaction. The transaction
// layer has already serialised writers; tr captures before-images for
// abort and the dirty set for WAL logging.
func (s *Store) OpenWriter(tr MutationTracker) *TxView {
	return &TxView{store: s, tracker: tr, write: true}
}

// OpenReader creates a reader view pinned at the current epoch. It must
// be Closed to release the pin (and with it any snapshot pages held for
// this epoch).
func (s *Store) OpenReader() (*TxView, error) {
	// The view and the decode it points at share one allocation.
	r := &struct {
		TxView
		sup super
	}{}
	v := &r.TxView
	v.store, v.epoch, v.rsuper = s, s.pool.PinEpoch(), &r.sup
	sp, err := s.pool.GetAt(0, v.epoch)
	if err != nil {
		s.pool.UnpinEpoch(v.epoch)
		return nil, fmt.Errorf("storage: superblock at epoch %d: %w", v.epoch, err)
	}
	if err := v.rsuper.unmarshalFrom(sp); err != nil {
		s.pool.UnpinEpoch(v.epoch)
		return nil, err
	}
	return v, nil
}

// Share makes dst a further handle on reader view v's snapshot: the same
// store, pinned epoch and superblock decode, with a lifetime of its own
// — it ends when ended is set (or it is Closed), after which calls on it
// return ErrTxDone. It pins nothing, fetches no page and decodes
// nothing, so v — the owner of the pin — must stay open for as long as
// any share is in use.
func (v *TxView) Share(dst *TxView, ended *atomic.Bool) {
	dst.store, dst.epoch, dst.rsuper, dst.ended = v.store, v.epoch, v.rsuper, ended
}

// Close ends the view: every later accessor call returns ErrTxDone. A
// reader view from OpenReader also releases its epoch pin. Close is
// idempotent.
func (v *TxView) Close() {
	if v.done.Swap(true) {
		return
	}
	if !v.write && v.ended == nil {
		v.store.pool.UnpinEpoch(v.epoch)
	}
}

// isDone reports whether the view has ended.
func (v *TxView) isDone() bool {
	return v.done.Load() || (v.ended != nil && v.ended.Load())
}

// Writable reports whether this is a writer view.
func (v *TxView) Writable() bool { return v.write }

// Epoch returns the reader's pinned epoch (writers return the live
// epoch at call time).
func (v *TxView) Epoch() uint64 {
	if v.write {
		return v.store.pool.Epoch()
	}
	return v.epoch
}

// sup returns the superblock this view resolves against: the live one
// for writers, the epoch-pinned decode for readers.
func (v *TxView) sup() *super {
	if v.write {
		return &v.store.super
	}
	return v.rsuper
}

// Get fetches a page as seen by this view.
func (v *TxView) Get(id oid.PageID) (*Page, error) {
	if v.isDone() {
		return nil, ErrTxDone
	}
	if v.write {
		return v.store.pool.Get(id)
	}
	return v.store.pool.GetAt(id, v.epoch)
}

// GetTyped is Get plus a page-type assertion.
func (v *TxView) GetTyped(id oid.PageID, want PageType) (*Page, error) {
	p, err := v.Get(id)
	if err != nil {
		return nil, err
	}
	if p.Type() != want {
		return nil, fmt.Errorf("%w: page %d is %v, want %v", ErrPageType, id, p.Type(), want)
	}
	return p, nil
}

// Touch prepares a page for mutation and returns the page object the
// caller must mutate from here on. On the first touch of a page in a
// transaction this performs the copy-on-write swap: the prior image is
// published as the current epoch's snapshot (keeping concurrent readers
// consistent), a writable copy becomes the live page, and the tracker
// records the before-image for abort and WAL logging. Later touches of
// the same page return the already-writable live object.
func (v *TxView) Touch(p *Page) *Page {
	if !v.write {
		panic("storage: Touch on read-only view")
	}
	if v.isDone() {
		panic(ErrTxDone)
	}
	if v.tracker != nil && v.tracker.Tracked(p.ID) {
		// Already copied (or freshly allocated) this transaction; make
		// sure the caller holds the live object, not a stale pre-COW
		// pointer. Its bytes are about to change under its table.
		if live := v.store.pool.Live(p.ID); live != nil {
			p = live
		}
		p.staleOffsets()
		return p
	}
	np, before, wasDirty := v.store.pool.COW(p)
	if v.tracker != nil {
		v.tracker.BeforeMutate(np.ID, before, wasDirty)
	}
	if np.ID == 0 {
		v.store.supPg = np
	}
	return np
}

// Allocate returns a zeroed dirty page of the requested type, reusing
// the free list when possible.
func (v *TxView) Allocate(t PageType) (*Page, error) {
	if !v.write {
		return nil, errors.New("storage: Allocate on read-only view")
	}
	if v.isDone() {
		return nil, ErrTxDone
	}
	s := v.store
	var p *Page
	if s.super.freeHead != oid.NilPage {
		id := s.super.freeHead
		fp, err := s.pool.GetTyped(id, PageFree)
		if err != nil {
			return nil, fmt.Errorf("storage: free list: %w", err)
		}
		next := oid.PageID(binary.BigEndian.Uint32(fp.Body()[0:4]))
		fp = v.Touch(fp)
		s.super.freeHead = next
		v.touchSuper()
		clear(fp.Data)
		p = fp
	} else {
		id := oid.PageID(s.super.nPages)
		s.super.nPages++
		v.touchSuper()
		p = s.pool.Install(id, make([]byte, s.PageSize()))
		if v.tracker != nil {
			v.tracker.DidAllocate(id)
		}
	}
	p.SetType(t)
	if t == PageSlotted {
		SlottedInit(p)
	}
	return p, nil
}

// Free returns a page to the free list.
func (v *TxView) Free(id oid.PageID) error {
	if !v.write {
		return errors.New("storage: Free on read-only view")
	}
	if v.isDone() {
		return ErrTxDone
	}
	if id == 0 {
		return errors.New("storage: cannot free superblock")
	}
	s := v.store
	p, err := s.pool.Get(id)
	if err != nil {
		return err
	}
	p = v.Touch(p)
	clear(p.Data)
	p.SetType(PageFree)
	binary.BigEndian.PutUint32(p.Body()[0:4], uint32(s.super.freeHead))
	s.super.freeHead = id
	v.touchSuper()
	return nil
}

// Root returns named structure root i as seen by this view.
func (v *TxView) Root(i int) oid.PageID { return v.sup().roots[i] }

// SetRoot updates named structure root i.
func (v *TxView) SetRoot(i int, id oid.PageID) {
	if !v.write {
		panic("storage: SetRoot on read-only view")
	}
	v.store.super.roots[i] = id
	v.touchSuper()
}

// Counter returns persistent counter i as seen by this view.
func (v *TxView) Counter(i int) uint64 { return v.sup().counters[i] }

// SetCounter stores persistent counter i.
func (v *TxView) SetCounter(i int, val uint64) {
	if !v.write {
		panic("storage: SetCounter on read-only view")
	}
	v.store.super.counters[i] = val
	v.touchSuper()
}

// NextCounter increments persistent counter i and returns the new value
// (so counters start handing out 1, keeping 0 as nil).
func (v *TxView) NextCounter(i int) uint64 {
	if !v.write {
		panic("storage: NextCounter on read-only view")
	}
	v.store.super.counters[i]++
	v.touchSuper()
	return v.store.super.counters[i]
}

// leaseSize is how many ids NextID reserves from a persistent counter
// per superblock touch.
const leaseSize = 64

// lease is one counter's in-memory range of ids: next is the last id
// handed out, limit the inclusive high-water mark the persisted counter
// is raised to; the lease is dry when next == limit.
type lease struct{ next, limit uint64 }

// NextID hands out the next id of persistent counter i from the store's
// lease, leasing leaseSize more from the counter when it is dry, so the
// common call touches nothing persistent. The persisted counter must
// cover the whole lease before the transaction commits, and NextID
// re-asserts that on every call, not only when it leases: a rolled-back
// transaction restores the counter but not the lease, and the next call
// finds the counter short and raises it again. No committed id is then
// ever above the persisted counter, and a crash leaks at most leaseSize
// ids a counter (ids need uniqueness, not density). Leases and ids are
// counted in the pool's registry (AllocLeases, AllocIDs).
func (v *TxView) NextID(i int) uint64 {
	if !v.write {
		panic("storage: NextID on read-only view")
	}
	s := v.store
	l := &s.leases[i]
	if l.next >= l.limit {
		hw := s.super.counters[i]
		l.next, l.limit = hw, hw+leaseSize
		s.pool.m.AllocLeases.Inc()
	}
	l.next++
	if s.super.counters[i] < l.limit {
		v.SetCounter(i, l.limit)
	}
	s.pool.m.AllocIDs.Inc()
	return l.next
}

// touchSuper notes a change to the live superblock. The first one of a
// transaction copies page 0 on write, so readers keep their epoch's
// image, and marks it stale; the changes reach the page once, when the
// transaction is staged (Store.SealSuper).
func (v *TxView) touchSuper() {
	if !v.store.supStale {
		v.Touch(v.store.supPg)
		v.store.supStale = true
	}
}

// PageSize returns the store's page size.
func (v *TxView) PageSize() int { return v.store.PageSize() }

// NumPages returns the logical page count as seen by this view.
func (v *TxView) NumPages() uint64 { return v.sup().nPages }

// Census scans every page visible to this view and tallies the census.
// O(file size).
func (v *TxView) Census() (Census, error) {
	var c Census
	n := v.sup().nPages
	for pid := uint64(0); pid < n; pid++ {
		p, err := v.Get(oid.PageID(pid))
		if err != nil {
			return Census{}, err
		}
		switch p.Type() {
		case PageSuper:
			c.Super++
		case PageSlotted:
			c.Slotted++
			c.SlottedFreeBytes += uint64(SlottedFreeSpace(p))
			SlottedSlots(p, func(_ uint16, data []byte) bool {
				c.Records++
				c.SlottedLiveBytes += uint64(len(data))
				return true
			})
		case PageOverflow:
			c.Overflow++
		case PageBTree:
			c.BTree++
		case PageFree:
			c.Free++
		}
	}
	return c, nil
}
