// Package derefcache is the read-side dereference cache: a sharded,
// byte-bounded CLOCK cache mapping an object id to its latest version id
// and fully materialised content, sitting in front of the buffer pool so a
// hot Deref/latest-version read skips the header probe, version-record
// decode, heap read and delta walk entirely.
//
// The design is the materialisation cache's (matcache) epoch-tagging
// model applied to the latest-version lookup, which — unlike a
// (oid, vid) materialisation — is mutable: an update changes which
// version is latest. Correctness still does not rely on invalidation.
// Every entry is tagged with the (storage shard, commit epoch) it was
// read at, and a lookup only hits when the reader's own pinned
// (shard, epoch) pair matches exactly. A commit advances the shard's
// epoch, making every entry cached under the previous epoch
// unreachable — a stale latest can never be served, it can only age
// out. The shard slot in the tag covers the reshard corner where an
// object moves to a different physical shard whose independent epoch
// counter happens to coincide with the old one, so a live reshard
// never serves stale placement.
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
)

// entryOverhead approximates the bookkeeping bytes charged per entry on
// top of its content.
const entryOverhead = 104

type entry struct {
	o          uint64
	shard      int
	epoch      uint64
	vid        uint64
	content    []byte
	ref        bool   // hit since the sweep last passed it
	prev, next *entry // clock list; next was inserted or passed later
}

// bucket is one independently locked CLOCK segment.
type bucket struct {
	mu    sync.Mutex
	m     map[uint64]*entry
	head  *entry // next for the eviction sweep
	tail  *entry // last inserted or passed
	bytes int64
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
	// sum: a probe pays one add, on a line readers of other shards do not
	// write.
	probes []probeCount
}

// probeCount is one shard's hit/miss pair, padded to a cache line of
// its own.
type probeCount struct {
	hits, misses atomic.Uint64
	_            [48]byte
}

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
		c.buckets[i] = &bucket{m: make(map[uint64]*entry)}
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

// probe returns the counters a probe by shard lands in.
func (c *Cache) probe(shard int) *probeCount {
	if shard < 0 || shard >= len(c.probes)-1 {
		shard = len(c.probes) - 1
	}
	return &c.probes[shard]
}

func (c *Cache) hit(shard int)  { c.probe(shard).hits.Add(1) }
func (c *Cache) miss(shard int) { c.probe(shard).misses.Add(1) }

// Get returns the latest vid and a copy of the content for o if an
// entry exists AND was stored at exactly the caller's (shard, epoch).
// An entry found under the same shard but an older epoch is provably
// stale (epochs only advance) and is deleted on the way out.
func (c *Cache) Get(o uint64, shard int, epoch uint64) (uint64, []byte, bool) {
	b := c.bucketOf(o)
	b.mu.Lock()
	e, ok := b.m[o]
	if !ok {
		b.mu.Unlock()
		c.miss(shard)
		return 0, nil, false
	}
	if e.shard != shard || e.epoch != epoch {
		// Drop only the provably stale: same shard, older epoch than the
		// probing reader's. A probe from a reader pinned at an OLDER
		// epoch, or from a different shard slot, must not evict a fresh
		// entry.
		if e.shard == shard && e.epoch < epoch {
			b.unlink(e)
			delete(b.m, o)
			b.bytes -= int64(len(e.content)) + entryOverhead
			b.mu.Unlock()
			c.bytes.Add(-(int64(len(e.content)) + entryOverhead))
			c.miss(shard)
			return 0, nil, false
		}
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

// Put stores a copy of content as o's latest-version result tagged with
// (shard, epoch), evicting entries in CLOCK order until the bucket fits
// its budget; the entry just stored is never the victim. Content larger
// than the per-bucket budget is not cached.
func (c *Cache) Put(o uint64, shard int, epoch uint64, vid uint64, content []byte) {
	cost := int64(len(content)) + entryOverhead
	if cost > c.capPer {
		return
	}
	b := c.bucketOf(o)
	cp := make([]byte, len(content))
	copy(cp, content)

	b.mu.Lock()
	var delta int64
	if old, ok := b.m[o]; ok {
		delta -= int64(len(old.content)) + entryOverhead
		b.bytes += delta
		old.shard, old.epoch, old.vid, old.content = shard, epoch, vid, cp
		b.bytes += cost
		delta += cost
		b.touch(old)
	} else {
		e := &entry{o: o, shard: shard, epoch: epoch, vid: vid, content: cp}
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

// Reset drops every entry.
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
