// Batched id allocation: oids and vids are handed out from per-shard
// in-memory leases of allocBatch ids instead of bumping the persistent
// superblock counter once per id. The old path cost one superblock COW
// and full re-marshal per allocation — on the commit hot path, under
// the shard's writer mutex. With leases the common allocation touches
// nothing persistent at all.
//
// Correctness rests on one invariant, re-asserted on EVERY allocation
// (not just at lease time): the persisted counter must cover the whole
// lease before the allocating transaction commits. A transaction that
// takes a lease stages SetCounter(limit); if that transaction aborts,
// its rollback restores the old counter while the in-memory lease
// survives — and the next transaction allocating from the lease finds
// Counter < limit and re-stages the cover, which then commits with it.
// So no committed id is ever above the persisted counter, and a crash
// can only leak up to allocBatch ids per shard (ids need uniqueness,
// not density). The stamp clock (newStamp) is untouched: stamps order
// versions across shards and keep their exact pre-lease semantics.
package core

import (
	"sync"

	"ode/internal/obs"
)

// allocBatch is the lease size: how many ids a shard reserves from the
// persistent counter per superblock touch.
const allocBatch = 64

// allocLease is one counter's leased range on one shard. next is the
// last id handed out, limit the lease's inclusive high-water mark; the
// lease is empty when next == limit.
type allocLease struct {
	next  uint64
	limit uint64
}

// shardAlloc is one shard's allocator state. Allocation and reset both
// run under the shard's writer mutex (reset from the coordinator's
// rollback hook), which is all the synchronisation the leases need.
// Leases taken and ids handed out are counted in the shard's registry
// (AllocLeases, AllocIDs), which is where Stats and /metrics read them.
type shardAlloc struct {
	lease [2]allocLease // indexed by ctrOID / ctrVID
}

// allocState holds every shard's allocator, growing like heapSpace when
// a reshard adds physical shards.
type allocState struct {
	mu     sync.Mutex
	shards []*shardAlloc
}

// take hands out shard s's allocator, growing the slice under the lock;
// use is serialised by s's writer mutex, exactly like takeHeapSpace.
func (a *allocState) take(s int) *shardAlloc {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.shards) <= s {
		a.shards = append(a.shards, &shardAlloc{})
	}
	return a.shards[s]
}

// reset drops shard s's leases so its next allocation re-leases from the
// persisted counter: always safe (the persisted counter covers every
// committed id, so a fresh lease can never re-issue one), at worst
// leaking a partial lease. Caller holds s's writer mutex.
func (a *allocState) reset(s int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s < len(a.shards) {
		a.shards[s].lease = [2]allocLease{}
	}
}

// shardAlloc resolves (and caches) this shard's allocator, and the
// shard's registry with it, so repeated allocations in one transaction
// skip the lock and the routing lookup.
func (tx *shardTx) shardAlloc() (*shardAlloc, *obs.Metrics) {
	if tx.al == nil {
		tx.al = tx.e.alloc.take(tx.s)
		tx.alm = tx.e.c.Shards()[tx.s].Metrics()
	}
	return tx.al, tx.alm
}

// allocID mints the next id for counter ctr (ctrOID or ctrVID) from the
// shard's lease, re-leasing from the persisted counter when the lease
// is dry and re-asserting the cover invariant described in the package
// comment.
func (tx *shardTx) allocID(ctr int) uint64 {
	sa, m := tx.shardAlloc()
	l := &sa.lease[ctr]
	if l.next >= l.limit {
		hw := tx.st.Counter(ctr)
		l.next, l.limit = hw, hw+allocBatch
		m.AllocLeases.Inc()
	}
	l.next++
	id := l.next
	if tx.st.Counter(ctr) < l.limit {
		tx.st.SetCounter(ctr, l.limit)
	}
	m.AllocIDs.Inc()
	return id
}
