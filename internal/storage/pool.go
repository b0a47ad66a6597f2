package storage

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"ode/internal/obs"
	"ode/internal/oid"
)

// DefaultPoolPages is the pool capacity used unless configured
// otherwise. Dirty pages count against it: they cannot be evicted before
// the next checkpoint flushes them, so the clean LRU shrinks as they
// grow, and a checkpoint is due (DirtyDue) before they crowd it out.
// 1536 pages is half of what a pool of 1024 clean pages with the dirty
// ones on top could reach (8 MiB of page images in the log: 2048 more),
// and a tenth above what it held under a steady writer (EXPERIMENTS.md
// E21 has what each size costs whom).
const DefaultPoolPages = 1536

// A checkpoint is due once dirty pages fill dirtyShareNum/dirtyShareDen
// of the pool. Nothing else bounds them: a page delta costs the log a few
// bytes, so CheckpointBytes of log can cover any number of dirty pages.
// Three quarters leaves the clean LRU a quarter of the pool at its
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
type snap struct {
	epoch uint64
	pg    *Page
}

// Pool is the buffer pool: an in-memory cache of page images keyed by
// PageID. Clean pages are evictable under an LRU policy; dirty pages are
// retained until FlushDirty writes them back, and both count against
// the one capacity: clean pages are evicted to make room for dirty ones.
// Only when dirty pages alone exceed it (automatic checkpoints disabled)
// does the pool grow past it.
//
// The pool also owns the snapshot machinery that gives readers epoch
// isolation: writers swap in fresh page copies on first mutation
// (copy-on-write), publishing the previous image into an epoch-tagged
// snapshot table; readers pin the epoch current at their start and
// resolve every page against that table. Snapshots are reclaimed when
// the last reader that could need them unpins.
type Pool struct {
	// mu guards all pool state. The transaction layer serialises
	// writers, but any number of readers share the pool concurrently,
	// and even a read-path Get mutates the LRU and may fault a page in.
	mu       sync.Mutex
	file     *File
	pages    map[oid.PageID]*Page
	cleanLRU *list.List // of *Page, front = most recent
	capacity int
	nDirty   int

	// epoch counts prepared write transactions this session: it advances
	// when a transaction reaches its in-memory commit point (its live
	// pages carry the new state and its WAL records are staged). durable
	// trails it, advancing only when those records are fsynced; readers
	// pin durable, so a prepared-but-not-yet-durable transaction is never
	// visible to a new reader. With group commit several transactions can
	// sit in the gap at once; their COW snapshots (tagged with the epoch
	// at first mutation) keep every pinned reader consistent.
	epoch   uint64
	durable uint64
	// pins refcounts readers per pinned epoch.
	pins map[uint64]int
	// snaps holds retained pre-images per page, epoch-ascending.
	// reclaimed is the oldest pinned epoch reclaimLocked last ran at:
	// every snapshot published since is tagged at or above it, so until it
	// moves there is nothing to drop.
	snaps     map[oid.PageID][]snap
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
	m.DirtyPages.Add(int64(pl.nDirty))
}

// Metrics returns the registry the pool counts in.
func (pl *Pool) Metrics() *obs.Metrics {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.m
}

// NewPool creates a pool over file with room for capacity pages, clean
// and dirty together.
func NewPool(file *File, capacity int) *Pool {
	if capacity < 8 {
		capacity = 8
	}
	return &Pool{
		file:     file,
		pages:    make(map[oid.PageID]*Page),
		cleanLRU: list.New(),
		capacity: capacity,
		pins:     make(map[uint64]int),
		snaps:    make(map[oid.PageID][]snap),
		m:        obs.New(),
	}
}

// Resident returns the number of cached pages and how many are dirty.
func (pl *Pool) Resident() (total, dirty int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.pages), pl.nDirty
}

// --- epochs and snapshots ---

// Epoch returns the current prepared epoch (the count of write
// transactions that reached their in-memory commit point this session).
func (pl *Pool) Epoch() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.epoch
}

// DurableEpoch returns the durable epoch: the newest epoch whose
// transactions' WAL records are known to be on stable storage. This is
// the epoch readers pin.
func (pl *Pool) DurableEpoch() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.durable
}

// PinEpoch registers a reader at the current durable epoch and returns
// it. The reader sees exactly the durably committed state as of this
// moment until it calls UnpinEpoch, regardless of concurrent writers —
// including writers whose commits are staged in a group-commit batch
// but not yet fsynced.
func (pl *Pool) PinEpoch() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.pins[pl.durable]++
	return pl.durable
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
	pl.epoch++
	pl.reclaimLocked()
	return pl.epoch
}

// AdvanceDurableTo raises the durable epoch to e (typically the epoch
// of the newest member of a just-fsynced group-commit batch): readers
// that pin afterwards observe every transaction up to e. Rollback of a
// failed batch leaves durable where it was — the burned epochs are
// simply never pinned. Regressions are ignored.
func (pl *Pool) AdvanceDurableTo(e uint64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if e > pl.epoch {
		e = pl.epoch
	}
	if e > pl.durable {
		pl.durable = e
		pl.reclaimLocked()
	}
}

// SnapshotCount returns the number of retained snapshot pages (for
// tests and stats).
func (pl *Pool) SnapshotCount() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := 0
	for _, ss := range pl.snaps {
		n += len(ss)
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
	min := pl.durable
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
	for id, ss := range pl.snaps {
		i := 0
		for i < len(ss) && ss[i].epoch < min {
			i++
		}
		switch {
		case i == 0:
		case i == len(ss):
			delete(pl.snaps, id)
		default:
			pl.snaps[id] = append([]snap(nil), ss[i:]...)
		}
		dropped += i
	}
	if dropped > 0 {
		pl.m.SnapshotPages.Add(int64(-dropped))
	}
}

// publishLocked retains p's current image as the snapshot for the
// current epoch. Publishing is keep-first: if this epoch already has a
// snapshot of the page (a previous transaction in the same epoch
// aborted), the existing image is byte-identical and is kept.
func (pl *Pool) publishLocked(p *Page) {
	ss := pl.snaps[p.ID]
	if len(ss) > 0 && ss[len(ss)-1].epoch == pl.epoch {
		return
	}
	p.lruElem = nil
	pl.snaps[p.ID] = append(ss, snap{epoch: pl.epoch, pg: p})
	pl.m.SnapshotPages.Inc()
}

// COW performs the copy-on-write swap for a writer's first mutation of
// a page this transaction: the current image is published as this
// epoch's snapshot (so in-flight and future readers of the epoch keep a
// stable view), and a fresh writable copy replaces it as the live page.
// It returns the writable copy plus the pre-image the transaction layer
// needs for abort; before aliases the immutable snapshot (both stay
// untouched by construction), so no extra copy is made.
func (pl *Pool) COW(p *Page) (np *Page, before []byte, wasDirty bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	basis := pl.pages[p.ID]
	if basis == nil {
		// Evicted between the caller's Get and now; the caller's (clean)
		// image is still the current one.
		basis = p
	}
	if el, ok := basis.lruElem.(*list.Element); ok && el != nil {
		pl.cleanLRU.Remove(el)
	}
	pl.publishLocked(basis)
	np = &Page{
		ID:     basis.ID,
		Data:   append([]byte(nil), basis.Data...),
		dirty:  true,
		pinned: basis.pinned,
	}
	if !basis.dirty || pl.pages[np.ID] == nil {
		pl.addDirty(1)
	}
	pl.pages[np.ID] = np
	pl.evictOverflow() // a clean basis already evicted gave up no room for np
	return np, basis.Data, basis.dirty
}

// Live returns the current live page object for id, or nil if it is not
// resident. Writers use it to re-resolve page pointers taken before a
// COW swap.
func (pl *Pool) Live(id oid.PageID) *Page {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.pages[id]
}

// Get returns the live page with the given id, reading it from the file
// if it is not resident. The returned Page is shared; callers mutating
// Data must go through a write view's Touch.
func (pl *Pool) Get(id oid.PageID) (*Page, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.getLocked(id)
}

func (pl *Pool) getLocked(id oid.PageID) (*Page, error) {
	if p, ok := pl.pages[id]; ok {
		pl.m.PoolHits.Inc()
		pl.touch(p)
		return p, nil
	}
	pl.m.PoolMisses.Inc()
	buf := make([]byte, pl.file.PageSize())
	if err := pl.file.ReadPage(id, buf); err != nil {
		return nil, err
	}
	p := &Page{ID: id, Data: buf}
	pl.insertClean(p)
	return p, nil
}

// GetAt returns the page as it was at the given pinned epoch: the
// earliest snapshot at or after the epoch if the page has been mutated
// since, otherwise the live page (whose image is then unchanged since
// that epoch). The returned page must be treated as immutable.
func (pl *Pool) GetAt(id oid.PageID, epoch uint64) (*Page, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if ss := pl.snaps[id]; len(ss) > 0 {
		// Epoch-ascending: linear scan; chains are short (one entry per
		// epoch with a pinned reader).
		for _, s := range ss {
			if s.epoch >= epoch {
				return s.pg, nil
			}
		}
	}
	return pl.getLocked(id)
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
	if old, ok := pl.pages[id]; ok {
		old.Restore(data)
		pl.markDirtyLocked(old)
		return old
	}
	p := &Page{ID: id, Data: data, dirty: true}
	pl.pages[id] = p
	pl.addDirty(1)
	pl.evictOverflow()
	return p
}

// MarkDirty flags a page as modified, removing it from the clean LRU so
// it cannot be evicted before the next flush.
func (pl *Pool) MarkDirty(p *Page) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.markDirtyLocked(p)
}

func (pl *Pool) markDirtyLocked(p *Page) {
	if p.dirty {
		return
	}
	p.dirty = true
	pl.addDirty(1)
	if el, ok := p.lruElem.(*list.Element); ok && el != nil {
		pl.cleanLRU.Remove(el)
		p.lruElem = nil
	}
}

// MarkClean clears a page's dirty flag without writing it (used when an
// abort restores the page to its last-flushed image).
func (pl *Pool) MarkClean(p *Page) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !p.dirty {
		return
	}
	p.dirty = false
	pl.addDirty(-1)
	pl.insertCleanExisting(p)
	pl.evictOverflow()
}

// DirtyPages returns the resident dirty pages in page-id order.
func (pl *Pool) DirtyPages() []*Page {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.dirtyPagesLocked()
}

func (pl *Pool) dirtyPagesLocked() []*Page {
	out := make([]*Page, 0, pl.nDirty)
	for _, p := range pl.pages {
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
// and moves the pages to the clean LRU. The caller (the writer path) is
// responsible for ordering this after WAL durability and for the final
// Sync.
//
// The page I/O happens outside the pool mutex so concurrent readers are
// never stalled behind a checkpoint's writes; only the writer mutates
// pages, and it is the one in here. The images go out in page order, one
// write per run of adjacent pages (File.WriteSorted), sealed into a
// scratch buffer: the page objects being flushed are visible to
// concurrent readers at the current epoch.
func (pl *Pool) FlushDirty() error {
	pl.mu.Lock()
	dirty := pl.dirtyPagesLocked()
	pl.mu.Unlock()

	written, werr := pl.file.WriteSorted(len(dirty), func(i int) (oid.PageID, []byte) {
		return dirty[i].ID, dirty[i].Data
	})

	pl.mu.Lock()
	for _, p := range dirty[:written] {
		if !p.dirty {
			continue
		}
		p.dirty = false
		pl.addDirty(-1)
		pl.insertCleanExisting(p)
	}
	pl.evictOverflow()
	pl.mu.Unlock()
	return werr
}

// DropDirty discards every dirty page image without writing it (used on
// abort after before-images are restored, and by recovery resets).
func (pl *Pool) DropDirty() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for id, p := range pl.pages {
		if p.dirty {
			delete(pl.pages, id)
			pl.addDirty(-1)
		}
	}
}

// Forget removes a page from the cache entirely (used when a page
// allocated by an aborted transaction is rolled out of existence).
func (pl *Pool) Forget(id oid.PageID) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	p, ok := pl.pages[id]
	if !ok {
		return
	}
	if p.dirty {
		pl.addDirty(-1)
	}
	if el, ok := p.lruElem.(*list.Element); ok && el != nil {
		pl.cleanLRU.Remove(el)
	}
	delete(pl.pages, id)
}

// Pin marks p as never evictable (used for the superblock, whose decoded
// form is cached by the Store).
func (pl *Pool) Pin(p *Page) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	p.pinned = true
	if el, ok := p.lruElem.(*list.Element); ok && el != nil {
		pl.cleanLRU.Remove(el)
		p.lruElem = nil
	}
}

func (pl *Pool) insertClean(p *Page) {
	pl.pages[p.ID] = p
	if !p.pinned {
		p.lruElem = pl.cleanLRU.PushFront(p)
	}
	pl.evictOverflow()
}

func (pl *Pool) insertCleanExisting(p *Page) {
	if !p.pinned {
		p.lruElem = pl.cleanLRU.PushFront(p)
	}
}

func (pl *Pool) touch(p *Page) {
	if el, ok := p.lruElem.(*list.Element); ok && el != nil {
		pl.cleanLRU.MoveToFront(el)
	}
}

// addDirty moves the dirty-page count, and its gauge, by n.
func (pl *Pool) addDirty(n int) {
	pl.nDirty += n
	pl.m.DirtyPages.Add(int64(n))
}

// DirtyDue reports whether dirty pages have reached their share of the
// pool (dirtyShareNum/dirtyShareDen): the transaction layer checkpoints
// when they have, as it does when the log reaches its size limit.
func (pl *Pool) DirtyDue() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.nDirty*dirtyShareDen >= pl.capacity*dirtyShareNum
}

// evictOverflow evicts least-recently-used clean pages until clean and
// dirty pages together fit the capacity, or no clean page is left.
func (pl *Pool) evictOverflow() {
	for pl.cleanLRU.Len()+pl.nDirty > pl.capacity {
		back := pl.cleanLRU.Back()
		if back == nil {
			return
		}
		victim := pl.cleanLRU.Remove(back).(*Page)
		victim.lruElem = nil
		delete(pl.pages, victim.ID)
		pl.m.PoolEvictions.Inc()
	}
}
