// Package derefcache is the read-side dereference cache: a sharded,
// byte-bounded CLOCK cache mapping an object id to its latest version id
// and fully materialised content, sitting in front of the buffer pool so a
// hot Deref/latest-version read skips the header probe, version-record
// decode, heap read and delta walk entirely.
//
// An entry is valid over an interval of its storage shard's commit
// epochs. It holds from the epoch of the reader that stored it, and it
// stays open until the writer that changes the object on that shard
// closes it (Invalidate) at the epoch its commit publishes at: a Get by
// a reader pinned at (shard, E) hits only when from <= E < until. A
// commit to one object therefore leaves every other object's entry
// serving, and a commit to this one keeps serving readers pinned before
// it. The shard in the entry covers placement: an object moved by a
// reshard is invalidated on both shards, and a reader routed to another
// shard never hits.
//
// One race remains: a reader pinned before a commit misses, reads the
// old latest and stores it after the writer invalidated. So Invalidate
// also raises a per-shard floor in the entry's bucket to the commit
// epoch, and a Put read below the floor is refused. The floor is the
// newest invalidation's epoch, never an older one: a Put read between
// two commits to the object would otherwise reopen the entry at content
// the second one replaced.
//
// Eviction is CLOCK: a hit sets its entry's reference bit, writing it
// only when it is clear so a hot entry's line is not dirtied per hit, and
// relinks nothing; Put's sweep passes a referenced entry once, clearing
// the bit, before it evicts an unreferenced one.
//
// The cache is safe for concurrent use. Get copies content out and Put
// copies content in, so callers can never alias cache-owned bytes.
package derefcache

import (
	"sync"
	"sync/atomic"

	"ode/internal/obs"
)

// entryOverhead approximates the bookkeeping bytes charged per entry on
// top of its content.
const entryOverhead = 104

// entry is 80 bytes, shard and ref sharing a word, so that a hit reads
// and writes only its first 64.
type entry struct {
	o          uint64
	shard      int32
	ref        bool   // hit since the sweep last passed it
	from       uint64 // epoch of the reader that stored it
	until      uint64 // epoch it was invalidated at; 0 while open
	vid        uint64
	content    []byte
	prev, next *entry // clock list; next was inserted or passed later
}

// bucket is one independently locked CLOCK segment.
type bucket struct {
	mu    sync.Mutex
	m     map[uint64]*entry
	head  *entry // next for the eviction sweep
	tail  *entry // last inserted or passed
	bytes int64

	// floor holds, per storage shard (indexed like Cache.probes), the
	// newest epoch an invalidation in this bucket was made at: a Put
	// read below it is refused.
	floor []uint64
}

// Cache is a sharded CLOCK cache of latest-version dereference results.
type Cache struct {
	buckets []*bucket
	capPer  int64 // byte budget per bucket

	evictions atomic.Uint64
	bytes     atomic.Int64

	// probes counts hits and misses per storage shard, indexed by shard
	// slot, for the {shard="i"} metric series; the last element takes the
	// probes from slots beyond the tracked range. The totals are their
	// sum: a probe pays one striped add, on a line neither readers of
	// other shards nor readers on other stripes write.
	probes []probeCount
}

// probeCount is one shard's hit/miss pair.
type probeCount struct{ hits, misses obs.Counter }

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Bytes     int64
	Entries   int
}

// New builds a cache bounded by capacity bytes spread over nBuckets
// independently locked segments, tracking per-shard hit rates for up to
// maxShards storage shards. nBuckets is rounded up to a power of two;
// values < 1 become 1.
func New(capacity int64, nBuckets, maxShards int) *Cache {
	if nBuckets < 1 {
		nBuckets = 1
	}
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	if capacity < 0 {
		capacity = 0
	}
	if maxShards < 0 {
		maxShards = 0
	}
	c := &Cache{
		buckets: make([]*bucket, n),
		capPer:  capacity / int64(n),
		probes:  make([]probeCount, maxShards+1),
	}
	for i := range c.buckets {
		c.buckets[i] = &bucket{m: make(map[uint64]*entry), floor: make([]uint64, maxShards+1)}
	}
	return c
}

func (c *Cache) bucketOf(o uint64) *bucket {
	// fnv-1a over the id; buckets is a power of two.
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (o >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return c.buckets[h&uint64(len(c.buckets)-1)]
}

// slot returns the index of shard's probe counters and bucket floors:
// the last one takes every shard beyond the tracked range.
func (c *Cache) slot(shard int) int {
	if shard < 0 || shard >= len(c.probes)-1 {
		return len(c.probes) - 1
	}
	return shard
}

// probe returns the counters a probe by shard lands in.
func (c *Cache) probe(shard int) *probeCount { return &c.probes[c.slot(shard)] }

func (c *Cache) hit(shard int)  { c.probe(shard).hits.Inc() }
func (c *Cache) miss(shard int) { c.probe(shard).misses.Inc() }

// Get returns the latest vid and a copy of the content for o if an
// entry exists for shard and is valid at epoch: stored by a reader at
// or below it, and not invalidated at or below it.
func (c *Cache) Get(o uint64, shard int, epoch uint64) (uint64, []byte, bool) {
	b := c.bucketOf(o)
	b.mu.Lock()
	e, ok := b.m[o]
	if !ok || int(e.shard) != shard || epoch < e.from || (e.until != 0 && epoch >= e.until) {
		b.mu.Unlock()
		c.miss(shard)
		return 0, nil, false
	}
	if !e.ref {
		e.ref = true
	}
	vid, content := e.vid, e.content
	b.mu.Unlock()
	c.hit(shard)
	// Content is never written after its Put, so it is copied unlocked.
	out := make([]byte, len(content))
	copy(out, content)
	return vid, out, true
}

// Put stores a copy of content as o's latest-version result read on
// shard at epoch, valid from epoch until an invalidation closes it, and
// evicts entries in CLOCK order until the bucket fits its budget; the
// entry just stored is never the victim. A read below the bucket's
// floor for shard is refused: an invalidation may already have passed
// the entry it would open. Content larger than the per-bucket budget is
// not cached.
func (c *Cache) Put(o uint64, shard int, epoch uint64, vid uint64, content []byte) {
	cost := int64(len(content)) + entryOverhead
	if cost > c.capPer {
		return
	}
	b := c.bucketOf(o)
	cp := make([]byte, len(content))
	copy(cp, content)

	b.mu.Lock()
	if epoch < b.floor[c.slot(shard)] {
		b.mu.Unlock()
		return
	}
	var delta int64
	if old, ok := b.m[o]; ok {
		delta -= int64(len(old.content)) + entryOverhead
		b.bytes += delta
		old.shard, old.from, old.until, old.vid, old.content = int32(shard), epoch, 0, vid, cp
		b.bytes += cost
		delta += cost
		b.touch(old)
	} else {
		e := &entry{o: o, shard: int32(shard), from: epoch, vid: vid, content: cp}
		b.m[o] = e
		b.append(e)
		b.bytes += cost
		delta += cost
	}
	var evicted int
	for b.bytes > c.capPer && b.head != nil {
		victim := b.head
		if victim.ref || victim.o == o {
			victim.ref = false
			b.touch(victim)
			continue
		}
		b.unlink(victim)
		delete(b.m, victim.o)
		freed := int64(len(victim.content)) + entryOverhead
		b.bytes -= freed
		delta -= freed
		evicted++
	}
	b.mu.Unlock()
	c.bytes.Add(delta)
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Invalidate closes o's entry for shard at epoch, the epoch the commit
// that changes o on shard publishes at, and raises the bucket's floor
// for shard to it. The caller invalidates before that commit is
// published, so no reader that sees the change has stored an entry yet.
// It allocates nothing.
func (c *Cache) Invalidate(o uint64, shard int, epoch uint64) {
	b := c.bucketOf(o)
	b.mu.Lock()
	if f := &b.floor[c.slot(shard)]; *f < epoch {
		*f = epoch
	}
	if e, ok := b.m[o]; ok && int(e.shard) == shard && (e.until == 0 || epoch < e.until) {
		e.until = epoch
	}
	b.mu.Unlock()
}

// Reset drops every entry. The floors stay: a reader pinned before an
// invalidation must not store an entry afterwards.
func (c *Cache) Reset() {
	for _, b := range c.buckets {
		b.mu.Lock()
		freed := b.bytes
		b.m = make(map[uint64]*entry)
		b.head, b.tail = nil, nil
		b.bytes = 0
		b.mu.Unlock()
		c.bytes.Add(-freed)
	}
}

// Stats snapshots the aggregate cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
	}
	for i := range c.probes {
		s.Hits += c.probes[i].hits.Load()
		s.Misses += c.probes[i].misses.Load()
	}
	for _, b := range c.buckets {
		b.mu.Lock()
		s.Entries += len(b.m)
		b.mu.Unlock()
	}
	return s
}

// ShardStats reads one storage shard's hit/miss counters (zeros when
// the slot is beyond the tracked range).
func (c *Cache) ShardStats(shard int) (hits, misses uint64) {
	if shard < 0 || shard >= len(c.probes)-1 {
		return 0, 0
	}
	return c.probes[shard].hits.Load(), c.probes[shard].misses.Load()
}

// --- intrusive clock list (bucket.mu held) ---

func (b *bucket) append(e *entry) {
	e.prev, e.next = b.tail, nil
	if b.tail != nil {
		b.tail.next = e
	} else {
		b.head = e
	}
	b.tail = e
}

func (b *bucket) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (b *bucket) touch(e *entry) {
	if b.tail == e {
		return
	}
	b.unlink(e)
	b.append(e)
}
