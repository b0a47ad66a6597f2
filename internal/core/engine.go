// Package core implements the Ode versioned-object engine — the paper's
// primary contribution. It provides:
//
//   - persistent objects with identity (pnew → Create, oids);
//   - version orthogonality: any object can grow versions at any time
//     with no type-level declaration and no cost before the first
//     newversion (§2, §3);
//   - object ids as generic references that always dereference to the
//     latest version, and version ids as specific references (§3, §4);
//   - newversion with automatically maintained temporal (total order by
//     creation) and derived-from (tree) relationships (§2, §4);
//   - pdelete of a whole object or a single version with derivation-tree
//     splicing (§4.4);
//   - traversals Dprevious, Tprevious, Dchildren/alternatives, version
//     histories, and as-of temporal lookup (§4.5);
//   - delta storage of version payloads against their derived-from
//     parent (§2's SCCS/RCS deltas), switchable per database;
//   - configurations and contexts built over the primitives (§5);
//   - trigger events so notification/percolation policies can be built
//     outside the kernel (§1, §7).
//
// Every engine operation runs on a Tx — a per-transaction handle that
// routes each object to the shard its oid lives on through the
// epoch-versioned shard map snapshot pinned at begin. Under a
// single shard the Tx binds exactly one storage view, heap and tree set,
// as it always did; under N shards it lazily joins the shards the
// transaction touches and the transaction layer commits across them with
// two-phase commit. Engine.Write and Engine.Read mint the Tx and scope
// its lifetime to the callback; read transactions run against the
// coordinator's shared epoch-pinned snapshot and never block behind
// writers.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ode/internal/btree"
	"ode/internal/codec"
	"ode/internal/derefcache"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/trigger"
	"ode/internal/txn"
)

// ErrTxDone reports use of a transaction handle whose transaction has
// ended (re-exported by the ode package).
var ErrTxDone = storage.ErrTxDone

// Superblock counter slots (on-disk format). Each shard has its own
// counter set; oids and vids are composed as SlotBase(shard)|raw so an
// id names its BIRTH shard forever, while its current placement is a
// range lookup in the shard map (storage.ShardMap) and can move. The
// stamp counter holds the per-shard high-water mark of the engine's
// global stamp clock.
const (
	ctrOID     = 0
	ctrVID     = 1
	ctrStamp   = 2
	ctrObjects = 3
	ctrVersion = 4
)

// Superblock root slots (on-disk format). Every shard carries the full
// root set; the catalog, config (named configurations/contexts) and
// named-index trees are authoritative on shard 0 only, while annotation
// records live in the config tree of the shard that owns the annotated
// object.
const (
	rootObjTable = 0
	rootVerIdx   = 1
	rootTempIdx  = 2
	rootCatalog  = 3
	rootExtent   = 4
	rootConfig   = 5
	rootVidIdx   = 6
)

// Errors surfaced by the engine (re-exported by the ode package).
var (
	ErrNoObject  = errors.New("ode: no such object")
	ErrNoVersion = errors.New("ode: no such version")
	ErrNoType    = errors.New("ode: type not registered")
	ErrWrongType = errors.New("ode: object has different type")
	ErrCorrupt   = errors.New("ode: corrupt database structure")
)

// Options configures the engine.
type Options struct {
	// DeltaTier enables the delta storage tier (DESIGN.md §14): every
	// version is written as a full payload, and the write that makes it
	// cold, or a compaction sweep, demotes it to a delta against its
	// D-parent. Off, payloads stay as written; deltas written by earlier
	// code are still read.
	DeltaTier bool
	// AnchorInterval bounds a delta chain: the delta tier only demotes a
	// version while every dependent chain through it stays within this
	// many links of a full anchor, and a compaction sweep promotes
	// versions found deeper (after the interval shrank across a reopen).
	// 0 means DefaultAnchorInterval; at most MaxAnchorInterval.
	AnchorInterval int

	// DerefCacheBytes is the read-side dereference cache budget (latest
	// version id + materialised content keyed by oid, valid until a
	// commit changes the object); 0 means DefaultDerefCacheBytes,
	// negative disables it. It is independent of the delta tier: the hot
	// Deref path benefits under every policy.
	DerefCacheBytes int64
}

// DefaultAnchorInterval is how many delta links may separate a version
// from a full copy of its content.
const DefaultAnchorInterval = 16

// MaxAnchorInterval is the largest AnchorInterval: a version record
// holds its chain depth in 16 bits.
const MaxAnchorInterval = math.MaxUint16

// DefaultCacheBytes was the budget of the retired materialisation cache;
// nothing in the engine reads it. It stays while the benchmark's matcache
// probe sizes its cache with it.
const DefaultCacheBytes = 4 << 20

// DefaultDerefCacheBytes is the dereference cache budget when
// Options.DerefCacheBytes is zero.
const DefaultDerefCacheBytes = 4 << 20

// Engine is the versioned-object store. It holds only cross-transaction
// state; everything a single transaction needs lives on its Tx.
type Engine struct {
	c    *txn.Coordinator
	bus  *trigger.Bus
	opts Options

	// m is the coordinator's registry: the engine counts there what no
	// shard owns — walk lengths, delta-tier and compaction activity. (Id
	// allocation is a shard's, and counted in that shard's registry.)
	m *obs.Metrics

	// dcache is the read-side dereference cache (nil when disabled):
	// oid → (latest vid, content) on a shard, valid from the epoch it
	// was read at until a writer changing the object there invalidates
	// it at its commit epoch (shardTx.invalidate), so a hot Deref skips
	// the header probe and payload walk entirely until its own object
	// changes.
	dcache *derefcache.Cache

	// heapSpace holds each shard's heap free-space cache, shared across
	// write transactions for as long as the engine is open: writers on
	// one shard are serialised by its writer mutex, under which
	// resetShard also repairs the cache after a rollback. hsMu guards the
	// slice, which grows when a reshard adds physical shards.
	hsMu      sync.Mutex
	heapSpace []*storage.HeapState

	// alloc holds the per-shard batched id-allocation leases (alloc.go).
	// Like heapSpace, each shard's state is used only under that shard's
	// writer mutex; the registry grows when a reshard adds shards.
	alloc allocState

	// stamp is the global version-creation clock: stamps must be
	// comparable across shards (AsOf, CurrentStamp), so they cannot be
	// composed per shard the way oids are. Each allocation mirrors the
	// clock into the allocating shard's ctrStamp counter, so reopening
	// seeds the clock from the per-shard maxima. The clock does not roll
	// back with an aborted transaction: an abort leaves a gap.
	stamp atomic.Uint64

	// cursor round-robins fresh transactions across shards for object
	// allocation; a transaction's later allocations stay on its first
	// shard so the common transaction commits without 2PC.
	cursor atomic.Uint64

	// idxExist notes that at least one named secondary index exists, in
	// which case write transactions join shard 0 up front: trigger-driven
	// index maintenance writes shard 0 in nearly every such transaction,
	// and a late join of shard 0 is a join below a held shard — a
	// try-lock that, with every indexed writer wanting the same mutex,
	// often fails and restarts the attempt. Joined first, it is an
	// ordinary wait.
	idxExist atomic.Bool
}

// shardTx binds one transaction's presence on one shard: the storage
// view plus tree and heap handles for that shard. All shard-local engine
// logic is shardTx methods; the routing Tx (route.go) picks the shardTx
// an operation belongs to and delegates. The bundle is one allocation:
// the heap handle and the seven tree handles live in it by value (a
// transaction that reads one object through the dereference cache opens
// none of them, and should not pay for them).
type shardTx struct {
	e    *Engine
	rt   *Tx // the routing transaction this bundle belongs to
	s    int // shard slot
	st   *storage.TxView
	heap storage.Heap
	bus  *trigger.Bus
	opts Options

	// The engine trees, each pointing at its slot (the root-slot index)
	// of trees below.
	objTable *btree.Tree // oid → object header
	verIdx   *btree.Tree // oid+vid → version record
	tempIdx  *btree.Tree // oid+stamp → vid
	catalog  *btree.Tree // type names ↔ ids (authoritative on shard 0)
	extent   *btree.Tree // typeid+oid → ()
	config   *btree.Tree // configurations, contexts, annotations
	vidIdx   *btree.Tree // vid → oid
	trees    [rootVidIdx + 1]btree.Tree

	// indexes caches named secondary-index trees opened by this
	// transaction (roots live in shard 0's catalog tree); made on first
	// use.
	indexes map[string]*btree.Tree

	// al caches this shard's batched id-allocator state (alloc.go) and
	// alm the shard's registry, where allocations are counted; both are
	// resolved on first allocation.
	al  *shardAlloc
	alm *obs.Metrics

	// invalLast is the object this bundle last invalidated in the
	// dereference cache (invalidate).
	invalLast oid.OID

	// memo holds the records a write bundle has loaded or stored
	// (memo.go); nil on a read-only bundle.
	memo *recMemo

	writable bool
}

// NewSharded wires an engine over a shard coordinator, creating the
// persistent structures on every shard on first use.
func NewSharded(c *txn.Coordinator, opts Options) (*Engine, error) {
	if opts.AnchorInterval == 0 {
		opts.AnchorInterval = DefaultAnchorInterval
	}
	phys := c.NumShards()
	e := &Engine{
		c:         c,
		bus:       trigger.NewBus(),
		opts:      opts,
		m:         c.Metrics(),
		heapSpace: make([]*storage.HeapState, phys),
	}
	for i := range e.heapSpace {
		e.heapSpace[i] = storage.NewHeapState()
	}
	c.OnRollback(e.resetShard)
	if opts.DerefCacheBytes >= 0 {
		cap := opts.DerefCacheBytes
		if cap == 0 {
			cap = DefaultDerefCacheBytes
		}
		e.dcache = derefcache.New(cap, 16, storage.MaxSlots)
	}
	// Initialize any physical shard still lacking the engine trees: all
	// of them on a fresh database, and — after a crash between a
	// reshard's grow step and its provisioning transaction — just the
	// newly created ones. One transaction, ascending joins, 2PC when it
	// spans shards.
	var missing []int
	if err := c.Read(func(r *txn.ReadTx) error {
		for s := 0; s < r.N(); s++ {
			if r.View(s).Root(rootObjTable) == oid.NilPage {
				missing = append(missing, s)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if len(missing) > 0 && !c.ReadOnly() {
		err := c.Write(func(w *txn.WriteTx) error {
			for _, s := range missing {
				v, err := w.Join(s)
				if err != nil {
					return err
				}
				for _, slot := range []int{
					rootObjTable, rootVerIdx, rootTempIdx, rootCatalog,
					rootExtent, rootConfig, rootVidIdx,
				} {
					t, err := btree.Create(v)
					if err != nil {
						return err
					}
					v.SetRoot(slot, t.Root())
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: init structures: %w", err)
		}
	}
	// Seed the stamp clock from the per-shard high-water marks and note
	// whether any named index exists (write transactions then join shard
	// 0 eagerly; see idxExist).
	if err := c.Read(func(r *txn.ReadTx) error {
		var max uint64
		for s := 0; s < r.N(); s++ {
			if v := r.View(s).Counter(ctrStamp); v > max {
				max = v
			}
		}
		e.stamp.Store(max)
		cat := btree.Open(r.View(0), r.View(0).Root(rootCatalog))
		found := false
		err := cat.AscendPrefix([]byte(idxRootPrefix), func(_, _ []byte) (bool, error) {
			found = true
			return false, nil
		})
		e.idxExist.Store(found)
		return err
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// newShardTx binds a shard bundle to v, opening every tree at the root
// the view's superblock snapshot records. A writable bundle gets a memo.
func (e *Engine) newShardTx(v *storage.TxView, hs *storage.HeapState, rt *Tx, s int, writable bool) *shardTx {
	var b *shardTx
	if writable {
		// A write bundle and its memo are one allocation.
		w := &struct {
			shardTx
			memo recMemo
		}{}
		b = &w.shardTx
		b.memo = &w.memo
	} else {
		b = new(shardTx)
	}
	b.e, b.rt, b.s, b.st = e, rt, s, v
	b.heap = *storage.NewHeap(v, hs)
	b.bus, b.opts, b.writable = e.bus, e.opts, writable
	for slot := range b.trees {
		b.trees[slot] = *btree.Open(v, v.Root(slot))
	}
	b.objTable = &b.trees[rootObjTable]
	b.verIdx = &b.trees[rootVerIdx]
	b.tempIdx = &b.trees[rootTempIdx]
	b.catalog = &b.trees[rootCatalog]
	b.extent = &b.trees[rootExtent]
	b.config = &b.trees[rootConfig]
	b.vidIdx = &b.trees[rootVidIdx]
	return b
}

// takeHeapSpace hands out shard s's heap free-space cache, growing the
// slice when a reshard has added physical shards. The caller holds s's
// writer mutex (it joined the shard), which serialises use.
func (e *Engine) takeHeapSpace(s int) *storage.HeapState {
	e.hsMu.Lock()
	defer e.hsMu.Unlock()
	for len(e.heapSpace) <= s {
		e.heapSpace = append(e.heapSpace, storage.NewHeapState())
	}
	return e.heapSpace[s]
}

// resetShard repairs shard s's heap cache and drops its allocation
// leases after a rollback that restored and forgot the given pages. The
// coordinator calls it after every rollback on s
// (Coordinator.OnRollback), under s's writer mutex — the mutex every use
// of both is made under. The rollback says exactly which pages changed
// under the heap cache, so the cache keeps what it knows of every other
// page and its sweep position (HeapState.Repair); a lease minted against
// rolled-back counter state is simpler to discard than to reason about,
// and re-leasing from the persisted counter is always safe.
func (e *Engine) resetShard(s int, restored []*storage.Page, forgotten []oid.PageID) {
	e.takeHeapSpace(s).Repair(restored, forgotten)
	e.alloc.reset(s)
}

// newOID allocates an oid on this shard: the shard-local counter
// composed with the shard slot (identity under one shard). The routing
// Tx only allocates on shards whose home-range tail is still their own
// (ShardMap.Allocatable), so a fresh id routes to its birth shard.
// Allocation draws from the shard's batched lease (alloc.go), so the
// common case costs no superblock touch.
func (tx *shardTx) newOID() oid.OID {
	return oid.OID(storage.Compose(tx.allocID(ctrOID), tx.s))
}

// newVID allocates a vid on this shard, composed like newOID. Unlike a
// fresh oid, the value can fall in a range migrated elsewhere (vids are
// minted on the OBJECT's current shard, wherever it moved), so the
// vid→oid index entry routes by vid value (Tx.putVidIdx), not by tx.s.
func (tx *shardTx) newVID() oid.VID {
	return oid.VID(storage.Compose(tx.allocID(ctrVID), tx.s))
}

// newStamp allocates a creation stamp: the engine's global clock
// supplies the value and the shard counter keeps the high-water mark for
// reopen.
func (tx *shardTx) newStamp() oid.Stamp {
	s := tx.e.stamp.Add(1)
	if tx.st.Counter(ctrStamp) < s {
		tx.st.SetCounter(ctrStamp, s)
	}
	return oid.Stamp(s)
}

// saveRoots persists any root page movements after a mutating operation.
func (tx *shardTx) saveRoots() {
	set := func(slot int, t *btree.Tree) {
		if tx.st.Root(slot) != t.Root() {
			tx.st.SetRoot(slot, t.Root())
		}
	}
	set(rootObjTable, tx.objTable)
	set(rootVerIdx, tx.verIdx)
	set(rootTempIdx, tx.tempIdx)
	set(rootCatalog, tx.catalog)
	set(rootExtent, tx.extent)
	set(rootConfig, tx.config)
	set(rootVidIdx, tx.vidIdx)
}

// Bus exposes the trigger bus.
func (e *Engine) Bus() *trigger.Bus { return e.bus }

// Coordinator exposes the transaction coordinator.
func (e *Engine) Coordinator() *txn.Coordinator { return e.c }

// DeltaTier reports whether the delta storage tier is enabled.
func (e *Engine) DeltaTier() bool { return e.opts.DeltaTier }

// DerefCacheStats snapshots the dereference cache counters; ok is false
// when the cache is disabled.
func (e *Engine) DerefCacheStats() (derefcache.Stats, bool) {
	if e.dcache == nil {
		return derefcache.Stats{}, false
	}
	return e.dcache.Stats(), true
}

// DerefCacheShardStats reads one shard's dereference cache hit/miss
// counters (zeros when the cache is disabled).
func (e *Engine) DerefCacheShardStats(s int) (hits, misses uint64) {
	if e.dcache == nil {
		return 0, 0
	}
	return e.dcache.ShardStats(s)
}

// Write runs fn as a write transaction. The Tx is valid only until fn
// returns; on error or panic every effect is rolled back.
func (e *Engine) Write(fn func(tx *Tx) error) error {
	return e.c.Write(func(w *txn.WriteTx) error {
		tx := e.writeTx(w)
		if e.idxExist.Load() {
			if _, err := tx.shardW(0); err != nil {
				return err
			}
		}
		return fn(tx)
	})
}

// writeTx is the engine handle over one attempt of a write transaction.
func (e *Engine) writeTx(w *txn.WriteTx) *Tx {
	return &Tx{
		e:         e,
		w:         w,
		writable:  true,
		n:         w.NumShards(),
		rmap:      w.Map(),
		shards:    make([]*shardTx, w.NumShards()),
		lastAlloc: -1,
	}
}

// Read runs fn against a snapshot of the most recently committed state;
// it neither blocks nor is blocked by concurrent writers.
func (e *Engine) Read(fn func(tx *Tx) error) error { return e.ReadIn(new(ReadFrame), fn) }

// ReadFrame holds a read transaction's handles — the routing Tx and the
// coordinator's ReadTx — so that one allocation makes both; a caller
// with handles of its own embeds it in a larger frame (ode.DB.View).
type ReadFrame struct {
	tx Tx
	r  txn.ReadTx
}

// ReadIn is Read in a zero frame the caller allocated. Frames are not
// reused: the Tx ends with fn, and a handle kept past it fails.
func (e *Engine) ReadIn(f *ReadFrame, fn func(tx *Tx) error) error {
	return e.c.ReadIn(&f.r, func(r *txn.ReadTx) error {
		f.tx = Tx{e: e, r: r, n: r.N(), rmap: r.Map(), lastAlloc: -1}
		return fn(&f.tx)
	})
}

// --- keys ---

func objKey(o oid.OID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(o))
	return b[:]
}

func verKey(o oid.OID, v oid.VID) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(o))
	binary.BigEndian.PutUint64(b[8:16], uint64(v))
	return b[:]
}

func tempKey(o oid.OID, s oid.Stamp) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(o))
	binary.BigEndian.PutUint64(b[8:16], uint64(s))
	return b[:]
}

func vidKey(v oid.VID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func extKey(t oid.TypeID, o oid.OID) []byte {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(t))
	binary.BigEndian.PutUint64(b[4:12], uint64(o))
	return b[:]
}

// --- object header ---

// objHeader is the per-object record in the object table. The paper's §3
// point is embodied here: there is no "generic object header" users
// dereference through — the header exists only so the engine can find
// the latest version; an oid dereference is a single extra index probe,
// identical in cost for versioned and unversioned objects.
type objHeader struct {
	typ      oid.TypeID
	latest   oid.VID
	count    uint64 // live version count
	firstVID oid.VID
	created  oid.Stamp
}

func (h *objHeader) encode() []byte {
	b := make([]byte, 0, 40)
	b = codec.AppendU32(b, uint32(h.typ))
	b = codec.AppendUVarint(b, uint64(h.latest))
	b = codec.AppendUVarint(b, h.count)
	b = codec.AppendUVarint(b, uint64(h.firstVID))
	b = codec.AppendUVarint(b, uint64(h.created))
	return b
}

func decodeObjHeader(b []byte) (objHeader, error) {
	r := codec.NewReader(b)
	h := objHeader{}
	h.typ = oid.TypeID(r.U32())
	h.latest = oid.VID(r.UVarint())
	h.count = r.UVarint()
	h.firstVID = oid.VID(r.UVarint())
	h.created = oid.Stamp(r.UVarint())
	if r.Err() != nil {
		return objHeader{}, fmt.Errorf("%w: object header: %v", ErrCorrupt, r.Err())
	}
	return h, nil
}

// loadHeader returns o's header: from the memo, or decoded from the
// object table and memoised.
func (tx *shardTx) loadHeader(o oid.OID) (objHeader, error) {
	var om *objMemo
	if tx.memo != nil {
		if om = tx.memo.entry(o); om.hasHdr {
			return om.h, nil
		}
	}
	raw, ok, err := tx.objTable.Get(objKey(o))
	if err != nil {
		return objHeader{}, err
	}
	if !ok {
		return objHeader{}, fmt.Errorf("%w: %v", ErrNoObject, o)
	}
	h, err := decodeObjHeader(raw)
	if err == nil && om != nil {
		om.h, om.hasHdr = h, true
	}
	return h, err
}

// storeHeader writes o's header through to the object table and the
// memo. After a failed Put the memo holds nothing of o: what the tree
// holds then is unknown.
func (tx *shardTx) storeHeader(o oid.OID, h objHeader) error {
	tx.invalidate(o)
	if err := tx.objTable.Put(objKey(o), h.encode()); err != nil {
		tx.forget(o)
		return err
	}
	if tx.memo != nil {
		om := tx.memo.entry(o)
		om.h, om.hasHdr = h, true
	}
	return nil
}

// forget drops o from the dereference cache and from the memo. The
// writes that bypass storeHeader and storeVer — the raw deletes of
// DeleteVersion and DeleteObject, both sides of moveObject — call it.
func (tx *shardTx) forget(o oid.OID) {
	tx.invalidate(o)
	if tx.memo != nil {
		tx.memo.drop(o)
	}
}

// invalidate closes o's dereference-cache entry on this shard at the
// epoch this transaction's commit publishes at. Every write of o's
// object-table record or version records calls it. The writes of one
// operation, and of a bulk load, come in a run per object, so the call
// reaches the cache once per run: a repeat within the attempt closes
// the entry at the same epoch again, which changes nothing, and a set
// of every object seen would cost a bulk load more than the repeats it
// saves.
//
// That epoch is exactly the write view's Epoch()+1. The bundle is
// joined, so the transaction holds the shard's writer mutex from the
// join to its commit or rollback. Pool.AdvanceEpoch has one caller,
// Manager.submit, which runs under that mutex, for a commit and for a
// 2PC prepare alike: no other commit can take the next epoch first. An
// attempt that rolls back burns the epoch or leaves it to the next
// commit; no reader pins a burned epoch, so the early close costs a
// miss, never a stale read. Nothing looser would do: an epoch below the
// commit's would let a reader pinned just before the commit store the
// old latest above the floor, one above it would leave the entry open
// to readers of the commit.
func (tx *shardTx) invalidate(o oid.OID) {
	c := tx.e.dcache
	if c == nil || tx.invalLast == o {
		return
	}
	tx.invalLast = o
	c.Invalidate(uint64(o), tx.s, tx.st.Epoch()+1)
}

// Exists reports whether an object is present.
func (tx *shardTx) Exists(o oid.OID) (bool, error) {
	_, ok, err := tx.objTable.Get(objKey(o))
	return ok, err
}

// TypeOf returns the catalog type of an object.
func (tx *shardTx) TypeOf(o oid.OID) (oid.TypeID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilType, err
	}
	return h.typ, nil
}

// Latest returns the vid the object id currently binds to — the paper's
// generic-reference resolution ("an object id ... logically refers to
// the latest version of the object").
func (tx *shardTx) Latest(o oid.OID) (oid.VID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilVID, err
	}
	return h.latest, nil
}

// VersionCount returns the number of live versions of the object.
func (tx *shardTx) VersionCount(o oid.OID) (uint64, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return 0, err
	}
	return h.count, nil
}

// Owner resolves a vid to its object (reverse index).
func (tx *shardTx) Owner(v oid.VID) (oid.OID, error) {
	raw, ok, err := tx.vidIdx.Get(vidKey(v))
	if err != nil {
		return oid.NilOID, err
	}
	if !ok {
		return oid.NilOID, fmt.Errorf("%w: %v", ErrNoVersion, v)
	}
	return oid.OID(binary.BigEndian.Uint64(raw)), nil
}

// Stats reports engine-level totals.
type Stats struct {
	Objects  uint64
	Versions uint64
	NextOID  uint64
	NextVID  uint64
	Stamp    uint64
}

// Stats returns this shard's contribution to the engine totals.
func (tx *shardTx) Stats() Stats {
	return Stats{
		Objects:  tx.st.Counter(ctrObjects),
		Versions: tx.st.Counter(ctrVersion),
		NextOID:  tx.st.Counter(ctrOID),
		NextVID:  tx.st.Counter(ctrVID),
		Stamp:    tx.st.Counter(ctrStamp),
	}
}

// Stats returns engine totals as of the most recent commit.
func (e *Engine) Stats() Stats {
	var s Stats
	_ = e.Read(func(tx *Tx) error {
		s = tx.Stats()
		return nil
	})
	return s
}

// ShardStats returns each physical shard's contribution to the engine
// totals, indexed by shard. A merged-away or not-yet-provisioned shard
// reports zeros.
func (e *Engine) ShardStats() []Stats {
	var out []Stats
	_ = e.Read(func(tx *Tx) error {
		out = make([]Stats, tx.n)
		for s := 0; s < tx.n; s++ {
			b, err := tx.shardR(s)
			if err != nil {
				return err
			}
			out[s] = b.Stats()
		}
		return nil
	})
	return out
}
