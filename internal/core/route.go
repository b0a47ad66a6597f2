package core

import (
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

// Tx is one transaction's engine handle. It routes every operation to
// the shard the addressed object lives on — a range lookup in the
// shard map snapshot pinned at begin — joining shards
// lazily as the transaction touches them. Catalog, named-configuration,
// context and named-index state is authoritative on shard 0; annotation
// records live with their object. With one shard the Tx degenerates to
// exactly the pre-shard handle: one view, one heap, one tree set.
//
// A Tx is created by Engine.Write/Engine.Read and is invalid once the
// callback returns (the underlying views return ErrTxDone).
//
// Isolation under N > 1: a write transaction locks every shard it
// touches — reads join too (per-shard two-phase locking), so a
// read-modify-write sees live state under the shard's writer mutex,
// exactly as the single writer mutex guaranteed before sharding. Only
// read-only catalog lookups peek a committed snapshot (shardPeek0). A
// join that ends the attempt instead (a try-lock below a held shard
// failed, or the shard map moved) unwinds the closure by panic and the
// coordinator reruns it with a fresh Tx (txn.WriteTx.Join). A
// read transaction pins nothing: it holds a reference on the
// coordinator's cut — one committed snapshot of every shard, pinned
// once by whoever built it and shared by every reader until the next
// commit (txn/cut.go) — and binds a bundle to a shard's view of that
// cut when it first touches the shard.
type Tx struct {
	e        *Engine
	w        *txn.WriteTx
	r        *txn.ReadTx
	writable bool

	// n is the physical shard count and rmap the shard map snapshot,
	// both pinned at begin from the transaction's routing bundle. A
	// reshard committing mid-transaction restarts the whole closure at
	// its next join or peek, so routing through the pinned map is always
	// consistent with the data the transaction can see.
	n    int
	rmap *storage.ShardMap

	// shards holds the bundle for every shard this transaction is live
	// on: joined (mutable) shards of a write transaction, or pinned
	// snapshot bundles of a read transaction (nil until its first).
	shards []*shardTx
	// metaPeek is a snapshot bundle of shard 0 a write transaction uses
	// for read-only catalog lookups only (see shardPeek0); once shard 0
	// is joined the live bundle serves them instead.
	metaPeek *shardTx
	// lastAlloc is the shard this transaction allocated its first object
	// on (-1 before the first Create); later allocations reuse it so a
	// transaction's creations commit without 2PC.
	lastAlloc int
}

// shardW returns the live (joined) bundle for shard s, joining the
// shard on first use. On a read transaction it falls back to the pinned
// snapshot bundle — the mutation then fails downstream exactly as it
// did before sharding.
func (tx *Tx) shardW(s int) (*shardTx, error) {
	if !tx.writable {
		return tx.shardR(s)
	}
	if b := tx.shards[s]; b != nil {
		return b, nil
	}
	v, err := tx.w.Join(s)
	if err != nil {
		return nil, err
	}
	b := tx.e.newShardTx(v, tx.e.takeHeapSpace(s), tx, s, true)
	tx.shards[s] = b
	return b, nil
}

// shardR returns a bundle for reading shard s: the pinned snapshot on a
// read transaction, or the live (joined) bundle on a write transaction.
// Writers always read through the join — per-shard two-phase locking —
// so a read-modify-write inside one Update sees live state under the
// shard's writer mutex, exactly like the pre-sharding engine where the
// whole Update ran under the single mutex. Reading from a snapshot peek
// instead would permit lost updates (two Updates both deriving their
// write from the same stale image). A join below a shard already held
// only try-locks, restarting the closure if that fails, so reads can
// never deadlock cross-shard writers. A read transaction makes the
// slice with its first bundle (a cache hit needs none, see ReadLatest).
func (tx *Tx) shardR(s int) (*shardTx, error) {
	if tx.writable {
		return tx.shardW(s)
	}
	if tx.shards == nil {
		tx.shards = make([]*shardTx, tx.n)
	} else if b := tx.shards[s]; b != nil {
		return b, nil
	}
	b := tx.e.newShardTx(tx.r.View(s), nil, tx, s, false)
	tx.shards[s] = b
	return b, nil
}

// shardPeek returns a bundle for a read-only CATALOG lookup on shard 0:
// the live bundle when shard 0 is joined, the pinned snapshot on a read
// transaction, otherwise a peek at shard 0 in the readers' cut
// (txn.WriteTx.View) that does NOT join the shard. The type catalog is
// append-only (types are registered, never removed or rebound), so a
// lookup that misses a concurrently
// registered type is equivalent to serializing before the registering
// transaction — no lost-update cycle is possible, unlike object reads
// (shardR). The peek keeps the hot create path (type check on shard 0,
// allocation on a higher shard) free of shard-0 lock traffic: no
// try-lock that a busy shard 0 would fail, and so no restart.
func (tx *Tx) shardPeek0() (*shardTx, error) {
	if !tx.writable || tx.shards[0] != nil {
		return tx.shardR(0)
	}
	if tx.metaPeek != nil {
		return tx.metaPeek, nil
	}
	v, err := tx.w.View(0)
	if err != nil {
		return nil, err
	}
	b := tx.e.newShardTx(v, nil, tx, 0, false)
	tx.metaPeek = b
	return b, nil
}

// byO / byV route an id to its shard through the pinned map snapshot.
func (tx *Tx) byO(o oid.OID) int { return tx.rmap.ShardOf(uint64(o)) }
func (tx *Tx) byV(v oid.VID) int { return tx.rmap.ShardOf(uint64(v)) }

// allocShard picks the shard for a new object: the transaction's first
// allocation shard when it has one, otherwise the engine's round-robin
// cursor over the LOGICAL shards. Shards whose home-range tail has been
// assigned away (possible transiently while a reshard is growing, see
// ShardMap.Allocatable) are skipped — a fresh id must route to the
// shard that minted it.
func (tx *Tx) allocShard() int {
	if tx.lastAlloc >= 0 {
		return tx.lastAlloc
	}
	s := 0
	if n := tx.rmap.N(); n > 1 {
		for i := 0; i < n; i++ {
			cand := int((tx.e.cursor.Add(1) - 1) % uint64(n))
			if tx.rmap.Allocatable(cand) {
				s = cand
				break
			}
		}
	}
	tx.lastAlloc = s
	return s
}

// putVidIdx records v → o in the vid→oid reverse index. The entry
// routes by the VID's value: versions are minted on their object's
// current shard, which after a migration need not own the slot range
// the new vid's value falls in.
func (tx *Tx) putVidIdx(v oid.VID, o oid.OID) error {
	b, err := tx.shardW(tx.byV(v))
	if err != nil {
		return err
	}
	if err := b.vidIdx.Put(vidKey(v), objKey(o)); err != nil {
		return err
	}
	b.saveRoots()
	return nil
}

// delVidIdx drops v's reverse-index entry (see putVidIdx for routing).
func (tx *Tx) delVidIdx(v oid.VID) error {
	b, err := tx.shardW(tx.byV(v))
	if err != nil {
		return err
	}
	if _, err := b.vidIdx.Delete(vidKey(v)); err != nil {
		return err
	}
	b.saveRoots()
	return nil
}

// loadVerOf loads a version record from its object's shard (used by
// cross-object validation in configurations and contexts).
func (tx *Tx) loadVerOf(o oid.OID, v oid.VID) (verRec, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return verRec{}, err
	}
	return b.loadVer(o, v)
}

// Writable reports whether this transaction may mutate.
func (tx *Tx) Writable() bool { return tx.writable }

// --- objects and versions (routed by oid/vid) ---

// Create allocates a persistent object — the paper's pnew. See
// shardTx.Create for the semantics; the router picks the allocation
// shard.
func (tx *Tx) Create(t oid.TypeID, content []byte) (oid.OID, oid.VID, error) {
	b, err := tx.shardW(tx.allocShard())
	if err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	return b.Create(t, content)
}

// Exists reports whether an object is present.
func (tx *Tx) Exists(o oid.OID) (bool, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return false, err
	}
	return b.Exists(o)
}

// TypeOf returns the catalog type of an object.
func (tx *Tx) TypeOf(o oid.OID) (oid.TypeID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilType, err
	}
	return b.TypeOf(o)
}

// Latest returns the vid the object id currently binds to.
func (tx *Tx) Latest(o oid.OID) (oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.Latest(o)
}

// VersionCount returns the number of live versions of the object.
func (tx *Tx) VersionCount(o oid.OID) (uint64, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return 0, err
	}
	return b.VersionCount(o)
}

// Owner resolves a vid to its object (reverse index).
func (tx *Tx) Owner(v oid.VID) (oid.OID, error) {
	b, err := tx.shardR(tx.byV(v))
	if err != nil {
		return oid.NilOID, err
	}
	return b.Owner(v)
}

// ReadVersion returns the content of a specific version.
func (tx *Tx) ReadVersion(o oid.OID, v oid.VID) ([]byte, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	return b.ReadVersion(o, v)
}

// ReadLatest returns the latest version's content and its vid. A read
// transaction probes the dereference cache at the shard's epoch in its
// cut, so a hit builds no bundle, and a miss fills the entry. A writer
// reads its own in-flight latest, which the cache must not see.
func (tx *Tx) ReadLatest(o oid.OID) ([]byte, oid.VID, error) {
	s, c := tx.byO(o), tx.e.dcache
	var epoch uint64
	if c != nil && !tx.writable {
		var err error
		if epoch, err = tx.r.Epoch(s); err != nil {
			return nil, oid.NilVID, err
		}
		if v, content, ok := c.Get(uint64(o), s, epoch); ok {
			return content, oid.VID(v), nil
		}
	}
	b, err := tx.shardR(s)
	if err != nil {
		return nil, oid.NilVID, err
	}
	content, v, err := b.ReadLatest(o)
	if err == nil && c != nil && !tx.writable {
		c.Put(uint64(o), s, epoch, uint64(v), content)
	}
	return content, v, err
}

// UpdateVersion overwrites the content of one version in place.
func (tx *Tx) UpdateVersion(o oid.OID, v oid.VID, content []byte) error {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return err
	}
	return b.UpdateVersion(o, v, content)
}

// UpdateLatest overwrites the latest version's content.
func (tx *Tx) UpdateLatest(o oid.OID, content []byte) (oid.VID, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.UpdateLatest(o, content)
}

// NewVersion creates a new version derived from the latest.
func (tx *Tx) NewVersion(o oid.OID) (oid.VID, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.NewVersion(o)
}

// NewVersionFrom creates a new version derived from a specific base.
func (tx *Tx) NewVersionFrom(o oid.OID, base oid.VID) (oid.VID, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.NewVersionFrom(o, base)
}

// DeleteVersion removes a single version — the paper's pdelete(vid).
func (tx *Tx) DeleteVersion(o oid.OID, v oid.VID) error {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return err
	}
	return b.DeleteVersion(o, v)
}

// DeleteObject removes an object and all its versions.
func (tx *Tx) DeleteObject(o oid.OID) error {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return err
	}
	return b.DeleteObject(o)
}

// --- traversals (routed by oid; chains are shard-local) ---

// Info returns a version's metadata.
func (tx *Tx) Info(o oid.OID, v oid.VID) (VersionInfo, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return VersionInfo{}, err
	}
	return b.Info(o, v)
}

// Dprev returns the version this version was derived from.
func (tx *Tx) Dprev(o oid.OID, v oid.VID) (oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.Dprev(o, v)
}

// Tprev returns the version temporally preceding v.
func (tx *Tx) Tprev(o oid.OID, v oid.VID) (oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.Tprev(o, v)
}

// Tnext returns the version temporally following v.
func (tx *Tx) Tnext(o oid.OID, v oid.VID) (oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilVID, err
	}
	return b.Tnext(o, v)
}

// DChildren returns the versions directly derived from v, in vid order:
// a few point lookups when v is near the latest version, a scan of the
// object's version records deeper in history.
func (tx *Tx) DChildren(o oid.OID, v oid.VID) ([]oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	return b.DChildren(o, v)
}

// History returns the derivation chain from v back to the root.
func (tx *Tx) History(o oid.OID, v oid.VID) ([]oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	return b.History(o, v)
}

// Leaves returns the leaves of the derived-from tree in vid order.
func (tx *Tx) Leaves(o oid.OID) ([]oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	return b.Leaves(o)
}

// Versions returns all live versions of the object in temporal order.
func (tx *Tx) Versions(o oid.OID) ([]oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	return b.Versions(o)
}

// AsOf returns the version that was latest at the given stamp.
func (tx *Tx) AsOf(o oid.OID, s oid.Stamp) (oid.VID, bool, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilVID, false, err
	}
	return b.AsOf(o, s)
}

// AsOfWalk answers AsOf by walking the temporal chain backwards.
func (tx *Tx) AsOfWalk(o oid.OID, s oid.Stamp) (oid.VID, bool, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return oid.NilVID, false, err
	}
	return b.AsOfWalk(o, s)
}

// CurrentStamp returns the engine's logical clock value (the stamp of
// the most recent version-creating operation).
func (tx *Tx) CurrentStamp() oid.Stamp {
	if tx.writable {
		return oid.Stamp(tx.e.stamp.Load())
	}
	var max uint64
	for s := 0; s < tx.n; s++ {
		b, err := tx.shardR(s)
		if err != nil {
			continue
		}
		if c := b.st.Counter(ctrStamp); c > max {
			max = c
		}
	}
	return oid.Stamp(max)
}

// --- catalog (authoritative on shard 0) ---

// RegisterType returns the TypeID for name, creating it on first use.
func (tx *Tx) RegisterType(name string) (oid.TypeID, error) {
	b, err := tx.shardW(0)
	if err != nil {
		return oid.NilType, err
	}
	return b.RegisterType(name)
}

// LookupType returns the TypeID for a registered name.
func (tx *Tx) LookupType(name string) (oid.TypeID, bool, error) {
	b, err := tx.shardPeek0()
	if err != nil {
		return oid.NilType, false, err
	}
	return b.LookupType(name)
}

// TypeName returns the registered name of t.
func (tx *Tx) TypeName(t oid.TypeID) (string, bool, error) {
	b, err := tx.shardPeek0()
	if err != nil {
		return "", false, err
	}
	return b.TypeName(t)
}

// typeExists reports whether t is a registered type id.
func (tx *Tx) typeExists(t oid.TypeID) (bool, error) {
	b, err := tx.shardPeek0()
	if err != nil {
		return false, err
	}
	return b.typeExists(t)
}

// Types lists all registered type names in name order.
func (tx *Tx) Types() ([]string, error) {
	b, err := tx.shardPeek0()
	if err != nil {
		return nil, err
	}
	return b.Types()
}

// Extent calls fn for every object of type t in oid order, across every
// shard's extent tree. With N > 1 it runs a k-way merge over per-shard
// extent cursors: one oid buffered per shard, each refilled with a
// single-key tree descent after it wins the merge. Early termination
// (fn returning false) and O(shards) memory are preserved — no shard's
// extent is ever materialized.
func (tx *Tx) Extent(t oid.TypeID, fn func(o oid.OID) (bool, error)) error {
	if tx.n == 1 {
		b, err := tx.shardR(0)
		if err != nil {
			return err
		}
		return b.Extent(t, fn)
	}
	// Every object lives in exactly one shard's extent tree (its current
	// placement), so heads never tie and picking the minimum head is
	// unambiguous. The merge runs over the PHYSICAL shards: a merged-away
	// shard may still hold ranges the map assigns to it.
	bundles := make([]*shardTx, tx.n)
	heads := make([]oid.OID, tx.n)
	has := make([]bool, tx.n)
	for s := 0; s < tx.n; s++ {
		b, err := tx.shardR(s)
		if err != nil {
			return err
		}
		if b.st.Root(rootObjTable) == oid.NilPage {
			// A shard created by a reshard grow step the crash interrupted
			// before provisioning (possible on a read-only open); it holds
			// no data.
			continue
		}
		bundles[s] = b
		heads[s], has[s], err = b.extentNext(t, 0, true)
		if err != nil {
			return err
		}
	}
	for {
		min := -1
		for s := range heads {
			if has[s] && (min < 0 || heads[s] < heads[min]) {
				min = s
			}
		}
		if min < 0 {
			return nil
		}
		ok, err := fn(heads[min])
		if err != nil || !ok {
			return err
		}
		heads[min], has[min], err = bundles[min].extentNext(t, heads[min], false)
		if err != nil {
			return err
		}
	}
}

// ExtentCount returns the number of objects of type t.
func (tx *Tx) ExtentCount(t oid.TypeID) (int, error) {
	n := 0
	err := tx.Extent(t, func(oid.OID) (bool, error) { n++; return true, nil })
	return n, err
}

// --- configurations and contexts (authoritative on shard 0) ---

// SaveConfig stores (or replaces) a named configuration.
func (tx *Tx) SaveConfig(name string, bindings []Binding) error {
	b, err := tx.shardW(0)
	if err != nil {
		return err
	}
	return b.SaveConfig(name, bindings)
}

// GetConfig returns a configuration's raw bindings.
func (tx *Tx) GetConfig(name string) ([]Binding, bool, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, false, err
	}
	return b.GetConfig(name)
}

// ResolveConfig resolves a configuration to concrete versions.
func (tx *Tx) ResolveConfig(name string) ([]Resolved, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, err
	}
	return b.ResolveConfig(name)
}

// DeleteConfig removes a configuration.
func (tx *Tx) DeleteConfig(name string) error {
	b, err := tx.shardW(0)
	if err != nil {
		return err
	}
	return b.DeleteConfig(name)
}

// Configs lists configuration names in order.
func (tx *Tx) Configs() ([]string, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, err
	}
	return b.Configs()
}

// SetContext stores a context.
func (tx *Tx) SetContext(name string, defaults map[oid.OID]oid.VID) error {
	b, err := tx.shardW(0)
	if err != nil {
		return err
	}
	return b.SetContext(name, defaults)
}

// GetContext returns a context's default-version map.
func (tx *Tx) GetContext(name string) (map[oid.OID]oid.VID, bool, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, false, err
	}
	return b.GetContext(name)
}

// ResolveInContext dereferences an object id under a context.
func (tx *Tx) ResolveInContext(ctx string, o oid.OID) (oid.VID, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return oid.NilVID, err
	}
	return b.ResolveInContext(ctx, o)
}

// DeleteContext removes a context.
func (tx *Tx) DeleteContext(name string) error {
	b, err := tx.shardW(0)
	if err != nil {
		return err
	}
	return b.DeleteContext(name)
}

// Contexts lists context names in order.
func (tx *Tx) Contexts() ([]string, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, err
	}
	return b.Contexts()
}

// --- annotations (routed by oid: stored with their object) ---

// Annotate sets (or with value=="" clears) one annotation on a version.
func (tx *Tx) Annotate(o oid.OID, v oid.VID, key, value string) error {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return err
	}
	return b.Annotate(o, v, key, value)
}

// Annotations returns a version's annotation map.
func (tx *Tx) Annotations(o oid.OID, v oid.VID) (map[string]string, bool, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, false, err
	}
	return b.Annotations(o, v)
}

// Annotation returns one annotation value.
func (tx *Tx) Annotation(o oid.OID, v oid.VID, key string) (string, bool, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return "", false, err
	}
	return b.Annotation(o, v, key)
}

// VersionsWhere returns the object's versions whose annotation key has
// the given value, in temporal order.
func (tx *Tx) VersionsWhere(o oid.OID, key, value string) ([]oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	return b.VersionsWhere(o, key, value)
}

// --- named indexes (authoritative on shard 0) ---

// IndexPut inserts or replaces an entry in a named index.
func (tx *Tx) IndexPut(name string, key, val []byte) error {
	b, err := tx.shardW(0)
	if err != nil {
		return err
	}
	return b.IndexPut(name, key, val)
}

// IndexGet reads one entry from a named index.
func (tx *Tx) IndexGet(name string, key []byte) ([]byte, bool, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, false, err
	}
	return b.IndexGet(name, key)
}

// IndexDelete removes an entry, reporting whether it was present.
func (tx *Tx) IndexDelete(name string, key []byte) (bool, error) {
	b, err := tx.shardW(0)
	if err != nil {
		return false, err
	}
	return b.IndexDelete(name, key)
}

// IndexAscend iterates entries in [from, to) order.
func (tx *Tx) IndexAscend(name string, from, to []byte, fn func(k, v []byte) (bool, error)) error {
	b, err := tx.shardR(0)
	if err != nil {
		return err
	}
	return b.IndexAscend(name, from, to, fn)
}

// IndexAscendPrefix iterates all entries whose key has the prefix.
func (tx *Tx) IndexAscendPrefix(name string, prefix []byte, fn func(k, v []byte) (bool, error)) error {
	b, err := tx.shardR(0)
	if err != nil {
		return err
	}
	return b.IndexAscendPrefix(name, prefix, fn)
}

// IndexDrop deletes a named index entirely.
func (tx *Tx) IndexDrop(name string) error {
	b, err := tx.shardW(0)
	if err != nil {
		return err
	}
	return b.IndexDrop(name)
}

// IndexNames lists the named indexes in order.
func (tx *Tx) IndexNames() ([]string, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return nil, err
	}
	return b.IndexNames()
}

// IndexLen counts the entries of a named index.
func (tx *Tx) IndexLen(name string) (int, error) {
	b, err := tx.shardR(0)
	if err != nil {
		return 0, err
	}
	return b.IndexLen(name)
}

// IndexCheck validates the named index tree's structural invariants.
func (tx *Tx) IndexCheck(name string) error {
	b, err := tx.shardR(0)
	if err != nil {
		return err
	}
	return b.IndexCheck(name)
}

// --- integrity and rendering ---

// CheckObject validates every structural invariant of one object.
func (tx *Tx) CheckObject(o oid.OID) error {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return err
	}
	return b.CheckObject(o)
}

// CheckAll validates every object and tree on every shard, then sweeps
// every shard's vid→oid index cross-shard: each entry must name an
// object (wherever the map placed it) that actually carries that
// version — the invariant a botched migration of vidIdx entries would
// break first.
func (tx *Tx) CheckAll() error {
	for s := 0; s < tx.n; s++ {
		b, err := tx.shardR(s)
		if err != nil {
			return err
		}
		if b.st.Root(rootObjTable) == oid.NilPage {
			continue // unprovisioned shard (read-only open mid-grow)
		}
		if err := b.CheckAll(); err != nil {
			return err
		}
	}
	for s := 0; s < tx.n; s++ {
		b, err := tx.shardR(s)
		if err != nil {
			return err
		}
		if b.st.Root(rootObjTable) == oid.NilPage {
			continue
		}
		if err := b.checkVidIdxEntries(); err != nil {
			return err
		}
	}
	return nil
}

// Render produces a deterministic textual picture of one object's
// version graph.
func (tx *Tx) Render(o oid.OID) (string, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return "", err
	}
	return b.Render(o)
}

// Stats returns engine totals from this transaction's snapshots, summed
// across shards (the stamp is the per-shard maximum: the global clock).
func (tx *Tx) Stats() Stats {
	var out Stats
	for s := 0; s < tx.n; s++ {
		b, err := tx.shardR(s)
		if err != nil {
			continue
		}
		ss := b.Stats()
		out.Objects += ss.Objects
		out.Versions += ss.Versions
		out.NextOID += ss.NextOID
		out.NextVID += ss.NextVID
		if ss.Stamp > out.Stamp {
			out.Stamp = ss.Stamp
		}
	}
	return out
}
