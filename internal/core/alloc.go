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
	"sync/atomic"
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

// shardAlloc is one shard's allocator state. Allocation is serialised
// by the shard's writer mutex, but reset() runs from the goroutine
// whose attempt aborted, after it has released the shard — the shard's
// next writer may be mid-allocation — so the lease pair has its own mutex.
// It is uncontended on the allocation hot path (the only other taker
// is the rare abort-time reset); the counters are atomic so Stats can
// read them from anywhere.
type shardAlloc struct {
	mu     sync.Mutex    // guards lease against abort-time reset
	lease  [2]allocLease // indexed by ctrOID / ctrVID
	leases atomic.Uint64 // leases taken (superblock touches saved elsewhere)
	ids    atomic.Uint64 // ids handed out
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
	sa := a.shards[s]
	if sa == nil {
		sa = &shardAlloc{}
		a.shards[s] = sa
	}
	return sa
}

// reset drops shard s's leases so its next allocation re-leases from the
// persisted counter. Called for the shards an aborted attempt had
// joined, alongside their heap caches: always safe (the persisted
// counter covers every committed id, so a fresh lease can never
// re-issue one), at worst leaking a partial lease.
func (a *allocState) reset(s int) {
	a.mu.Lock()
	var sa *shardAlloc
	if s < len(a.shards) {
		sa = a.shards[s]
	}
	a.mu.Unlock()
	if sa != nil {
		sa.mu.Lock()
		sa.lease = [2]allocLease{}
		sa.mu.Unlock()
	}
}

// stats sums leases taken and ids handed out across shards.
func (a *allocState) stats() (leases, ids uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sa := range a.shards {
		if sa != nil {
			leases += sa.leases.Load()
			ids += sa.ids.Load()
		}
	}
	return leases, ids
}

// shardStats reads one shard's allocator counters (zero if the shard
// has never allocated).
func (a *allocState) shardStats(s int) (leases, ids uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s < len(a.shards) && a.shards[s] != nil {
		return a.shards[s].leases.Load(), a.shards[s].ids.Load()
	}
	return 0, 0
}

// AllocStats sums allocator leases taken and ids handed out across
// shards.
func (e *Engine) AllocStats() (leases, ids uint64) {
	return e.alloc.stats()
}

// AllocShardStats reads one shard's allocator counters.
func (e *Engine) AllocShardStats(s int) (leases, ids uint64) {
	return e.alloc.shardStats(s)
}

// shardAlloc resolves (and caches) this shard's allocator so repeated
// allocations in one transaction skip the registry lock.
func (tx *shardTx) shardAlloc() *shardAlloc {
	if tx.al == nil {
		tx.al = tx.e.alloc.take(tx.s)
	}
	return tx.al
}

// allocID mints the next id for counter ctr (ctrOID or ctrVID) from the
// shard's lease, re-leasing from the persisted counter when the lease
// is dry and re-asserting the cover invariant described in the package
// comment.
func (tx *shardTx) allocID(ctr int) uint64 {
	sa := tx.shardAlloc()
	sa.mu.Lock()
	l := &sa.lease[ctr]
	if l.next >= l.limit {
		hw := tx.st.Counter(ctr)
		l.next, l.limit = hw, hw+allocBatch
		sa.leases.Add(1)
		if tx.e.m != nil {
			tx.e.m.AllocLeases.Inc()
		}
	}
	l.next++
	id := l.next
	if tx.st.Counter(ctr) < l.limit {
		tx.st.SetCounter(ctr, l.limit)
	}
	sa.mu.Unlock()
	sa.ids.Add(1)
	if tx.e.m != nil {
		tx.e.m.AllocIDs.Inc()
	}
	return id
}
