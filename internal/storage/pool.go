package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ode/internal/obs"
	"ode/internal/oid"
)

// DefaultPoolPages is the pool capacity used unless configured
// otherwise. Dirty pages count against it: they cannot be evicted before
// the next checkpoint flushes them, so the clean pages shrink as they
// grow, and a checkpoint is due (DirtyDue) before they crowd them out.
// 1536 pages is half of what a pool of 1024 clean pages with the dirty
// ones on top could reach (8 MiB of page images in the log: 2048 more),
// and a tenth above what it held under a steady writer (EXPERIMENTS.md
// E21 has what each size costs whom).
const DefaultPoolPages = 1536

// MinPoolPages is the smallest pool capacity: NewPool raises anything
// below it.
const MinPoolPages = 8

// A checkpoint is due once dirty pages fill dirtyShareNum/dirtyShareDen
// of the pool. Nothing else bounds them: a page delta costs the log a few
// bytes, so CheckpointBytes of log can cover any number of dirty pages.
// Three quarters leaves clean pages a quarter of the pool at its
// smallest, enough that a writer's own reads still hit.
const dirtyShareNum, dirtyShareDen = 3, 4

// snap is one retained pre-image of a page: the live image the page had
// at the moment a writer first mutated it during the given epoch. A
// reader pinned at epoch r resolves a page to the earliest snapshot
// whose epoch is >= r (the image unchanged since r), falling back to the
// live page when no such snapshot exists (the page has not been mutated
// since r). Snapshot pages are immutable: the copy-on-write swap in COW
// guarantees no writer ever mutates a page object once it is published
// here.
//
// A page's snapshots form a list, newest first, linked through older.
// Publishing puts a new head in front; reclaiming cuts the list after
// the last snapshot it keeps. Neither changes what a reader already
// walking the list can reach before the cut, and a reader never needs
// what lies after it.
type snap struct {
	epoch uint64
	pg    *Page
	older atomic.Pointer[snap]
}

// slot is one page id's entry in the pool's table: the live page and
// the snapshot list's head, each published through an atomic pointer so
// that a hit reads them without the pool mutex. Only setLive and
// setSnaps store them, under mu.
//
// The rest is guarded by mu. reading is set while a miss reads the page
// from the file with mu released: it is the placeholder a concurrent
// miss on the same page waits behind. reads counts the reads finished
// and err is what the last one returned; gen counts the stores of the
// live page.
type slot struct {
	page  atomic.Pointer[Page]
	snaps atomic.Pointer[snap]

	reading bool
	reads   uint32
	err     error
	gen     uint32
}

// at returns the earliest snapshot tagged at or after epoch, or nil.
// A list holds one entry per epoch, from the oldest pinned epoch on, in
// which a writer copied the page: reclaimLocked cuts only below the
// oldest pin. It stays short while readers come and go; under one
// long-pinned reader it grows by one for every commit that copies the
// page, and the walk with it.
func (s *slot) at(epoch uint64) *Page {
	var pg *Page
	for sn := s.snaps.Load(); sn != nil && sn.epoch >= epoch; sn = sn.older.Load() {
		pg = sn.pg
	}
	return pg
}

// Pool is the buffer pool: an in-memory cache of page images keyed by
// PageID. Clean pages are evictable under a CLOCK policy; dirty pages
// are retained until FlushDirty writes them back, and both count
// against the one capacity: clean pages are evicted to make room for
// dirty ones. Dirty pages alone can exceed it: by what the writers that
// began before they reached it dirty (a writer finding them at capacity
// checkpoints first, DirtyFull), and without bound with automatic
// checkpoints disabled.
//
// The pool also owns the snapshot machinery that gives readers epoch
// isolation: writers swap in fresh page copies on first mutation
// (copy-on-write), publishing the previous image into an epoch-tagged
// snapshot list; readers pin the epoch current at their start and
// resolve every page against that list. Snapshots are reclaimed when
// the last reader that could need them unpins.
//
// A hit takes no lock: Get and GetAt read the page's slot from a table
// published through an atomic pointer, and mark the page referenced for
// the CLOCK sweep. A miss registers a placeholder under mu and reads the
// file with mu released (DESIGN.md §9.2).
type Pool struct {
	// mu guards the pool's writer-side state: the table's growth, every
	// store into a slot, the resident ring and its counts, the pins and
	// the snapshot bookkeeping. The transaction layer serialises
	// writers, but any number of readers share the pool concurrently and
	// fault pages in.
	mu sync.Mutex
	// filled is signalled, on mu, whenever a miss's read finishes.
	filled   sync.Cond
	file     *File
	capacity int

	// table holds a slot per page id the pool has seen, indexed by id.
	// It grows copy-on-grow under mu; the slots themselves never move,
	// so a grown table copies only their pointers, and a slot is never
	// dropped.
	table atomic.Pointer[[]atomic.Pointer[slot]]

	// clock is the resident ring, every live page in it once (Page.at is
	// its index); hand is where the CLOCK sweep resumes. nClean counts
	// its clean unpinned pages, the evictable ones, and nDirty its dirty
	// ones, stored under mu and loaded without it by DirtyFull; clean
	// pinned pages count in neither.
	clock  []*Page
	hand   int
	nClean int
	nDirty atomic.Int64

	// epoch counts prepared write transactions this session: it advances
	// when a transaction reaches its in-memory commit point (its live
	// pages carry the new state and its WAL records are staged). durable
	// trails it, advancing only when those records are fsynced; readers
	// pin durable, so a prepared-but-not-yet-durable transaction is never
	// visible to a new reader. With group commit several transactions can
	// sit in the gap at once; their COW snapshots (tagged with the epoch
	// at first mutation) keep every pinned reader consistent. Both are
	// stored under mu and loaded without it.
	epoch   atomic.Uint64
	durable atomic.Uint64
	// pins refcounts readers per pinned epoch.
	pins map[uint64]int
	// snapped holds the slots that have snapshots, so reclaiming visits
	// only those. reclaimed is the oldest pinned epoch reclaimLocked last
	// ran at: every snapshot published since is tagged at or above it, so
	// until it moves there is nothing to drop.
	snapped   map[oid.PageID]*slot
	reclaimed uint64

	// m is the registry pool activity is counted in — hits, misses,
	// evictions, dirty pages, snapshot retention — and the only place it
	// is: the pool's own until a manager hands it its shard's (SetMetrics).
	// Readers are counted where they are admitted, in internal/txn.
	m *obs.Metrics
}

// SetMetrics moves the pool onto its shard's registry; the manager calls
// it once at open, before the pool is shared.
func (pl *Pool) SetMetrics(m *obs.Metrics) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.m = m
	m.DirtyPages.Add(pl.nDirty.Load())
}

// Metrics returns the registry the pool counts in.
func (pl *Pool) Metrics() *obs.Metrics {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.m
}

// NewPool creates a pool over file with room for capacity pages, clean
// and dirty together; a capacity below MinPoolPages is raised to it.
func NewPool(file *File, capacity int) *Pool {
	pl := &Pool{
		file:     file,
		capacity: max(capacity, MinPoolPages),
		pins:     make(map[uint64]int),
		snapped:  make(map[oid.PageID]*slot),
		m:        obs.New(),
	}
	pl.filled.L = &pl.mu
	pl.table.Store(new([]atomic.Pointer[slot]))
	return pl
}

// Resident returns the number of cached pages and how many are dirty.
func (pl *Pool) Resident() (total, dirty int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.clock), int(pl.nDirty.Load())
}

// --- the slot table ---

// slot returns id's slot, or nil if the pool has never held the page.
// It takes no lock.
func (pl *Pool) slot(id oid.PageID) *slot {
	if t := *pl.table.Load(); int(id) < len(t) {
		return t[id].Load()
	}
	return nil
}

// slotLocked returns id's slot, making it, and growing the table to
// reach it, if there is none.
func (pl *Pool) slotLocked(id oid.PageID) *slot {
	t := *pl.table.Load()
	if int(id) >= len(t) {
		nt := make([]atomic.Pointer[slot], max(int(id)+1, 2*len(t), 64))
		for i := range t {
			nt[i].Store(t[i].Load())
		}
		pl.table.Store(&nt)
		t = nt
	}
	s := t[id].Load()
	if s == nil {
		s = new(slot)
		t[id].Store(s)
	}
	return s
}

// setLive makes p the live page of s — nil removes the page — keeping
// the resident ring and its counts. It is the one store into a slot's
// live page: p takes the place of the page it replaces in the ring.
func (pl *Pool) setLive(s *slot, p *Page) {
	if old := s.page.Load(); old != nil {
		pl.count(old, -1)
		if p != nil {
			p.at = old.at
			pl.clock[p.at] = p
		} else {
			last := pl.clock[len(pl.clock)-1]
			pl.clock[old.at], last.at = last, old.at
			pl.clock[len(pl.clock)-1] = nil
			pl.clock = pl.clock[:len(pl.clock)-1]
		}
	} else if p != nil {
		p.at = len(pl.clock)
		pl.clock = append(pl.clock, p)
	}
	if p != nil {
		pl.count(p, 1)
	}
	s.gen++
	s.page.Store(p)
}

// setSnaps makes head the newest snapshot of s, the slot of page id. It
// is the one store into a slot's list head; reclaimLocked alone cuts a
// list's tail.
func (pl *Pool) setSnaps(id oid.PageID, s *slot, head *snap) {
	s.snaps.Store(head)
	if head == nil {
		delete(pl.snapped, id)
	} else {
		pl.snapped[id] = s
	}
}

// setFlags changes a page's dirty and pinned flags, moving its counts
// if it is resident.
func (pl *Pool) setFlags(p *Page, dirty, pinned bool) {
	resident := p.at < len(pl.clock) && pl.clock[p.at] == p
	if resident {
		pl.count(p, -1)
	}
	p.dirty, p.pinned = dirty, pinned
	if resident {
		pl.count(p, 1)
	}
}

// count adds n (1 or -1) to the tally p's flags put it in.
func (pl *Pool) count(p *Page, n int) {
	switch {
	case p.dirty:
		pl.nDirty.Add(int64(n))
		pl.m.DirtyPages.Add(int64(n))
	case !p.pinned:
		pl.nClean += n
	}
}

// --- epochs and snapshots ---

// Epoch returns the current prepared epoch (the count of write
// transactions that reached their in-memory commit point this session).
func (pl *Pool) Epoch() uint64 { return pl.epoch.Load() }

// DurableEpoch returns the durable epoch: the newest epoch whose
// transactions' WAL records are known to be on stable storage. This is
// the epoch readers pin.
func (pl *Pool) DurableEpoch() uint64 { return pl.durable.Load() }

// PinEpoch registers a reader at the current durable epoch and returns
// it. The reader sees exactly the durably committed state as of this
// moment until it calls UnpinEpoch, regardless of concurrent writers —
// including writers whose commits are staged in a group-commit batch
// but not yet fsynced.
func (pl *Pool) PinEpoch() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	e := pl.durable.Load()
	pl.pins[e]++
	return e
}

// UnpinEpoch releases a reader's pin. When the last reader of the
// oldest pinned epoch leaves, snapshots nobody can need anymore are
// reclaimed.
func (pl *Pool) UnpinEpoch(epoch uint64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := pl.pins[epoch]; n > 1 {
		pl.pins[epoch] = n - 1
		return
	}
	delete(pl.pins, epoch)
	pl.reclaimLocked()
}

// AdvanceEpoch moves the pool to the next prepared epoch and returns
// it. The transaction layer calls it once per write transaction at the
// in-memory commit point (under the writer mutex, before the commit is
// durable). Readers do not observe the new state until AdvanceDurableTo
// catches the durable epoch up.
func (pl *Pool) AdvanceEpoch() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	e := pl.epoch.Add(1)
	pl.reclaimLocked()
	return e
}

// AdvanceDurableTo raises the durable epoch to e (typically the epoch
// of the newest member of a just-fsynced group-commit batch): readers
// that pin afterwards observe every transaction up to e. Rollback of a
// failed batch leaves durable where it was — the burned epochs are
// simply never pinned. Regressions are ignored.
func (pl *Pool) AdvanceDurableTo(e uint64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	e = min(e, pl.epoch.Load())
	if e > pl.durable.Load() {
		pl.durable.Store(e)
		pl.reclaimLocked()
	}
}

// SnapshotCount returns the number of retained snapshot pages (for
// tests and stats).
func (pl *Pool) SnapshotCount() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := 0
	for _, s := range pl.snapped {
		for sn := s.snaps.Load(); sn != nil; sn = sn.older.Load() {
			n++
		}
	}
	return n
}

// OldestPinned returns the oldest epoch a reader still pins — the
// durable epoch when none does. Snapshots tagged below it are reclaimed,
// so it is what a long-lived pin holds back (tests).
func (pl *Pool) OldestPinned() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.oldestPinnedLocked()
}

func (pl *Pool) oldestPinnedLocked() uint64 {
	min := pl.durable.Load()
	for e := range pl.pins {
		if e < min {
			min = e
		}
	}
	return min
}

// reclaimLocked drops every snapshot no pinned reader (and no reader
// that could still pin the durable epoch) can resolve to: a snapshot
// tagged e serves readers pinned at epochs <= e, so it is garbage once
// every pin — and the durable epoch future readers would pin — is above
// it. Snapshots tagged between durable and the prepared epoch are
// always retained; they are what keeps readers consistent while a
// group-commit batch is in flight.
func (pl *Pool) reclaimLocked() {
	min := pl.oldestPinnedLocked()
	if min == pl.reclaimed {
		return
	}
	pl.reclaimed = min
	dropped := 0
	for id, s := range pl.snapped {
		var keep *snap // the oldest snapshot kept
		sn := s.snaps.Load()
		for ; sn != nil && sn.epoch >= min; sn = sn.older.Load() {
			keep = sn
		}
		if sn == nil {
			continue
		}
		if keep == nil {
			pl.setSnaps(id, s, nil)
		} else {
			keep.older.Store(nil)
		}
		for ; sn != nil; sn = sn.older.Load() {
			dropped++
		}
	}
	if dropped > 0 {
		pl.m.SnapshotPages.Add(int64(-dropped))
	}
}

// publishLocked retains p's current image as the snapshot for the
// current epoch. Publishing is keep-first: if this epoch already has a
// snapshot of the page (a previous transaction in the same epoch
// aborted), the existing image is byte-identical and is kept.
func (pl *Pool) publishLocked(s *slot, p *Page) {
	head, e := s.snaps.Load(), pl.epoch.Load()
	if head != nil && head.epoch == e {
		return
	}
	sn := &snap{epoch: e, pg: p}
	sn.older.Store(head)
	pl.setSnaps(p.ID, s, sn)
	pl.m.SnapshotPages.Inc()
}

// COW performs the copy-on-write swap for a writer's first mutation of
// a page this transaction: the current image is published as this
// epoch's snapshot (so in-flight and future readers of the epoch keep a
// stable view), and a fresh writable copy replaces it as the live page.
// The snapshot is published before the copy is stored, which is what
// lets GetAt read the two without mu. It returns the writable copy plus
// the pre-image the transaction layer needs for abort; before aliases
// the immutable snapshot (both stay untouched by construction), so no
// extra copy is made.
func (pl *Pool) COW(p *Page) (np *Page, before []byte, wasDirty bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s := pl.slotLocked(p.ID)
	basis := s.page.Load()
	if basis == nil {
		// Evicted between the caller's Get and now; the caller's (clean)
		// image is still the current one.
		basis = p
	}
	pl.publishLocked(s, basis)
	np = &Page{
		ID:     basis.ID,
		Data:   append([]byte(nil), basis.Data...),
		dirty:  true,
		pinned: basis.pinned,
		seg:    basis.seg,
	}
	pl.setLive(s, np)
	pl.evictOverflow() // a clean basis already evicted gave up no room for np
	return np, basis.Data, basis.dirty
}

// Live returns the current live page object for id, or nil if it is not
// resident. Writers use it to re-resolve page pointers taken before a
// COW swap.
func (pl *Pool) Live(id oid.PageID) *Page {
	if s := pl.slot(id); s != nil {
		return s.page.Load()
	}
	return nil
}

// Get returns the live page with the given id, reading it from the file
// if it is not resident. The returned Page is shared; callers mutating
// Data must go through a write view's Touch.
func (pl *Pool) Get(id oid.PageID) (*Page, error) {
	if s := pl.slot(id); s != nil {
		if p := s.page.Load(); p != nil {
			pl.hit(p)
			return p, nil
		}
	}
	return pl.fault(id, false, 0)
}

// GetAt returns the page as it was at the given pinned epoch: the
// earliest snapshot at or after the epoch if the page has been mutated
// since, otherwise the live page (whose image is then unchanged since
// that epoch). The returned page must be treated as immutable.
func (pl *Pool) GetAt(id oid.PageID, epoch uint64) (*Page, error) {
	if s := pl.slot(id); s != nil {
		// The live page first, the snapshots second: COW publishes the
		// old image before it stores the copy it edits, so a reader that
		// loads the copy finds the snapshot that stands in for it.
		p := s.page.Load()
		if sp := s.at(epoch); sp != nil {
			return sp, nil
		}
		if p != nil {
			pl.hit(p)
			return p, nil
		}
	}
	return pl.fault(id, true, epoch)
}

// hit counts a hit on p and marks it referenced for the CLOCK sweep,
// writing the bit only when it is clear.
func (pl *Pool) hit(p *Page) {
	pl.m.PoolHits.Inc()
	if !p.ref.Load() {
		p.ref.Store(true)
	}
}

// fault is the slow path of Get, and of GetAt (at set) at epoch. Under
// mu it resolves the page again — between the caller's look and now a
// writer may have loaded the page and copied it, publishing the image
// the reader needs as a snapshot — and otherwise reads it from the file
// with mu released. The first miss on a page marks the slot reading;
// later ones wait for that read and take its page, or its error. A read
// is installed only if the slot's live page did not move meanwhile:
// otherwise the image read may predate one a checkpoint wrote, and the
// page is resolved again.
func (pl *Pool) fault(id oid.PageID, at bool, epoch uint64) (*Page, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s := pl.slot(id)
	if s == nil {
		if err := pl.file.inRange(id); err != nil {
			// A page the pool never held and the file lacks: no slot for
			// it, so a corrupt page id cannot grow the table.
			pl.m.PoolMisses.Inc()
			return nil, err
		}
		s = pl.slotLocked(id)
	}
	read := false
	for {
		if at {
			if sp := s.at(epoch); sp != nil {
				return sp, nil
			}
		}
		if p := s.page.Load(); p != nil {
			if !read {
				pl.hit(p)
			}
			return p, nil
		}
		if s.reading {
			for n := s.reads; s.reads == n; {
				pl.filled.Wait()
			}
			if s.err != nil {
				return nil, s.err
			}
			continue
		}
		s.reading = true
		gen := s.gen
		pl.mu.Unlock()
		pl.m.PoolMisses.Inc()
		p := &Page{ID: id, Data: make([]byte, pl.file.PageSize())}
		p.ref.Store(true) // the miss is the page's first reference
		err := pl.file.ReadPage(id, p.Data)
		pl.mu.Lock()
		stale := s.gen != gen
		s.reading, s.err = false, err
		s.reads++
		pl.filled.Broadcast()
		if err != nil {
			return nil, err
		}
		read = true
		if !stale {
			pl.setLive(s, p)
			pl.evictOverflow()
			return p, nil
		}
	}
}

// GetTyped is Get plus a page-type assertion.
func (pl *Pool) GetTyped(id oid.PageID, want PageType) (*Page, error) {
	p, err := pl.Get(id)
	if err != nil {
		return nil, err
	}
	if p.Type() != want {
		return nil, fmt.Errorf("%w: page %d is %v, want %v", ErrPageType, id, p.Type(), want)
	}
	return p, nil
}

// Install registers a freshly materialised page image (e.g. a newly
// allocated page, or a page rebuilt by recovery) as dirty.
func (pl *Pool) Install(id oid.PageID, data []byte) *Page {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s := pl.slotLocked(id)
	if old := s.page.Load(); old != nil {
		old.Restore(data)
		pl.setFlags(old, true, old.pinned)
		return old
	}
	p := &Page{ID: id, Data: data, dirty: true}
	pl.setLive(s, p)
	pl.evictOverflow()
	return p
}

// MarkClean clears a page's dirty flag without writing it (used when an
// abort restores the page to its last-flushed image).
func (pl *Pool) MarkClean(p *Page) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !p.dirty {
		return
	}
	pl.setFlags(p, false, p.pinned)
	pl.evictOverflow()
}

// DirtyPages returns the resident dirty pages in page-id order.
func (pl *Pool) DirtyPages() []*Page {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]*Page, 0, pl.nDirty.Load())
	for _, p := range pl.clock {
		if p.dirty {
			out = append(out, p)
		}
	}
	// Sorted by page id so flushes issue sequential I/O and, just as
	// important, a deterministic write sequence: the fault matrix
	// identifies an injection point by its global operation number.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FlushDirty writes every dirty page to the page file (without syncing)
// and marks the pages clean: DirtyPages, WritePages and MarkWritten in
// one. The caller is responsible for ordering this after WAL durability
// and for the final Sync.
func (pl *Pool) FlushDirty() error {
	dirty := pl.DirtyPages()
	written, err := pl.WritePages(dirty)
	pl.MarkWritten(dirty[:written])
	return err
}

// WritePages writes the images of pages, as DirtyPages returned them, to
// the page file without syncing it, and returns how many went out before
// an error. It takes no lock: a page object the pool has handed out as
// live is never mutated once its transaction has ended — the next writer
// copies it (COW) — so the caller may run this beside writers, the
// images it writes being those of the moment it captured the pages. The
// images go out in page order, one write per run of adjacent pages
// (File.WriteSorted), sealed into a scratch buffer: readers may hold the
// page objects.
func (pl *Pool) WritePages(pages []*Page) (int, error) {
	return pl.file.WriteSorted(len(pages), func(i int) (oid.PageID, []byte) {
		return pages[i].ID, pages[i].Data
	})
}

// MarkWritten clears the dirty flag of each of pages, once written, that
// is still its id's live page: one a writer has copied since
// it was captured is no longer live, and the live copy, holding what the
// file does not, stays dirty.
func (pl *Pool) MarkWritten(pages []*Page) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, p := range pages {
		if p.dirty && pl.slot(p.ID).page.Load() == p {
			pl.setFlags(p, false, p.pinned)
		}
	}
	pl.evictOverflow()
}

// Forget removes a page from the cache entirely (used when a page
// allocated by an aborted transaction is rolled out of existence).
func (pl *Pool) Forget(id oid.PageID) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if s := pl.slot(id); s != nil && s.page.Load() != nil {
		pl.setLive(s, nil)
	}
}

// Pin marks p as never evictable (used for the superblock, whose decoded
// form is cached by the Store).
func (pl *Pool) Pin(p *Page) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.setFlags(p, p.dirty, true)
}

// DirtyDue reports whether dirty pages have reached their share of the
// pool (dirtyShareNum/dirtyShareDen): the transaction layer checkpoints
// when they have, as it does when the log reaches its size limit. Like
// DirtyFull it takes no lock (capacity never changes after NewPool).
func (pl *Pool) DirtyDue() bool {
	return int(pl.nDirty.Load())*dirtyShareDen >= pl.capacity*dirtyShareNum
}

// DirtyFull reports whether dirty pages have reached the pool's
// capacity, without taking mu: a writer about to begin checkpoints
// first when they have, since nothing it dirties could be evicted.
func (pl *Pool) DirtyFull() bool { return int(pl.nDirty.Load()) >= pl.capacity }

// evictOverflow evicts clean pages in CLOCK order until clean and dirty
// pages together fit the capacity, or no clean page is left. The hand
// passes over dirty and pinned pages, and gives a referenced page a
// second chance, clearing its bit; after two turns of the ring without
// a victim (readers setting bits as fast as it clears them) it takes
// the next clean page regardless.
func (pl *Pool) evictOverflow() {
	for swept := 0; pl.nClean > 0 && pl.nClean+int(pl.nDirty.Load()) > pl.capacity; {
		if pl.hand >= len(pl.clock) {
			pl.hand = 0
		}
		p := pl.clock[pl.hand]
		if p.dirty || p.pinned || (p.ref.Swap(false) && swept < 2*len(pl.clock)) {
			pl.hand++
			swept++
			continue
		}
		pl.setLive(pl.slot(p.ID), nil)
		pl.m.PoolEvictions.Inc()
		swept = 0
	}
}
