package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// A shard is one Store (file + buffer pool + superblock) in a sharded
// engine. Every shard is a fully independent storage unit: its own page
// file, pool, epoch pair, and root/counter set. The transaction layer
// owns one WAL and one commit pipeline per shard; the shard map below
// decides which shard a given object id lives on.
//
// A single-shard engine (N=1) is the same thing with one of each: the
// map degenerates to the identity.

// Placement is data, not arithmetic. Ids are composed at allocation
// time as SlotBase(slot)|raw — the allocating shard's slot in the top
// bits, a per-slot monotonic counter below — so every shard owns a
// contiguous "home range" of the id space and an id's placement is a
// range lookup in the ShardMap rather than a modulus baked into the id.
// Resharding moves contiguous id ranges between shards by rewriting map
// entries; the ids themselves never change.

// SlotShift is the bit position of the slot field inside an id. The low
// 54 bits are the per-slot allocation counter (enough for ~1.8e16
// allocations per slot); the high 10 bits are the slot.
const SlotShift = 54

// MaxSlots bounds the slot field: ids carry 64-SlotShift slot bits.
const MaxSlots = 1 << (64 - SlotShift)

// SlotBase returns the first id of slot s's home range.
func SlotBase(s int) uint64 { return uint64(s) << SlotShift }

// SlotEnd returns one past the last id of slot s's home range. For the
// top slot this wraps to 0, which the map code treats as "end of the id
// space".
func SlotEnd(s int) uint64 { return uint64(s+1) << SlotShift }

// SlotOf returns the slot an id was allocated in (its birth shard). The
// id's current placement is ShardMap.ShardOf, which starts out equal to
// SlotOf and diverges as ranges migrate.
func SlotOf(id uint64) int { return int(id >> SlotShift) }

// Compose builds the globally unique id for the raw-th allocation on
// slot s. Slot 0 is the identity on raw, so a single-shard engine
// allocates the same ids the pre-shard engine did.
func Compose(raw uint64, s int) uint64 { return SlotBase(s) | raw }

// Range is one contiguous assignment in a ShardMap: ids in
// [Start, next.Start) live on Shard. The last range extends to the end
// of the 64-bit id space.
type Range struct {
	Start uint64
	Shard int
}

// ShardMap is an epoch-versioned assignment of contiguous id ranges to
// shards. Maps are immutable: mutation methods return a new map with
// the epoch bumped, so concurrent readers hold consistent snapshots and
// a pointer comparison detects routing changes. The epoch is globally
// monotonic across the life of a store (persisted in shards.ode and in
// coordinator-log overlay records), so recovery can order competing
// images by epoch alone.
type ShardMap struct {
	epoch  uint64
	n      int // logical shard count (what DB.Shards reports)
	ranges []Range
}

// NewShardMap returns the fresh map for an n-shard store: each slot
// s < n owns its home range, with the last shard extending to the end
// of the id space. Epoch 0.
func NewShardMap(n int) *ShardMap {
	if n < 1 {
		n = 1
	}
	rs := make([]Range, n)
	for s := 0; s < n; s++ {
		rs[s] = Range{Start: SlotBase(s), Shard: s}
	}
	return &ShardMap{n: n, ranges: rs}
}

// Epoch returns the map's routing epoch.
func (m *ShardMap) Epoch() uint64 { return m.epoch }

// N returns the logical shard count. After a merge this is smaller than
// the physical shard count (emptied shards stay open but receive no new
// allocations and route nothing).
func (m *ShardMap) N() int { return m.n }

// ShardOf returns the shard id routes to.
func (m *ShardMap) ShardOf(id uint64) int {
	// Last range whose Start <= id.
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Start > id })
	return m.ranges[i-1].Shard
}

// Ranges returns a copy of the assignment list.
func (m *ShardMap) Ranges() []Range {
	return append([]Range(nil), m.ranges...)
}

// NextBoundary returns the smallest range start strictly greater than
// id, or 0 when id falls in the last range (no boundary above it).
// Reshard cursors use it to skip over stretches already owned by the
// destination.
func (m *ShardMap) NextBoundary(id uint64) uint64 {
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Start > id })
	if i == len(m.ranges) {
		return 0
	}
	return m.ranges[i].Start
}

// Allocatable reports whether shard s still owns the tail of its own
// home range — the precondition for s to allocate new ids (fresh ids in
// slot s must route to s).
func (m *ShardMap) Allocatable(s int) bool {
	return m.ShardOf(SlotEnd(s)-1) == s
}

// clone returns a mutable copy with the epoch bumped.
func (m *ShardMap) clone() *ShardMap {
	return &ShardMap{
		epoch:  m.epoch + 1,
		n:      m.n,
		ranges: append([]Range(nil), m.ranges...),
	}
}

// WithN returns a new map with the logical shard count set to n and the
// epoch bumped. Assignments are unchanged.
func (m *ShardMap) WithN(n int) *ShardMap {
	c := m.clone()
	c.n = n
	return c
}

// Assign returns a new map with ids in [lo, hi) routed to shard, and
// the epoch bumped. hi == 0 means the end of the id space. Adjacent
// equal-shard ranges are coalesced so the list stays proportional to
// the number of distinct contiguous assignments, not the number of
// historical migrations.
func (m *ShardMap) Assign(lo, hi uint64, shard int) *ShardMap {
	if hi != 0 && hi <= lo {
		panic(fmt.Sprintf("storage: ShardMap.Assign empty range [%d, %d)", lo, hi))
	}
	if shard < 0 || shard >= MaxSlots {
		panic(fmt.Sprintf("storage: ShardMap.Assign shard %d out of range", shard))
	}
	c := m.clone()
	// Owner of the id just past the assignment, which must keep its
	// shard after the splice.
	var succOwner int
	if hi != 0 {
		succOwner = m.ShardOf(hi)
	}
	out := make([]Range, 0, len(c.ranges)+2)
	for _, r := range c.ranges {
		if r.Start < lo {
			out = append(out, r)
		}
	}
	out = append(out, Range{Start: lo, Shard: shard})
	if hi != 0 {
		out = append(out, Range{Start: hi, Shard: succOwner})
		for _, r := range c.ranges {
			if r.Start > hi {
				out = append(out, r)
			}
		}
	}
	// Coalesce adjacent equal-shard ranges (and drop a duplicate start,
	// which can appear when hi coincided with an existing boundary).
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Start == last.Start {
			last.Shard = r.Shard
			continue
		}
		if r.Shard == last.Shard {
			continue
		}
		merged = append(merged, r)
	}
	c.ranges = merged
	return c
}

// shardMapVersion tags the encoding; bump on layout change.
const shardMapVersion = 1

// Encode serialises the map for shards.ode and coordinator-log overlay
// records.
func (m *ShardMap) Encode() []byte {
	buf := make([]byte, 0, 2+8+4+4+len(m.ranges)*12)
	buf = append(buf, shardMapVersion)
	buf = binary.BigEndian.AppendUint64(buf, m.epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.n))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.ranges)))
	for _, r := range m.ranges {
		buf = binary.BigEndian.AppendUint64(buf, r.Start)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Shard))
	}
	return buf
}

// DecodeShardMap parses an Encode image, validating structure: starts
// strictly ascending from 0, shard ids within MaxSlots, n >= 1.
func DecodeShardMap(data []byte) (*ShardMap, error) {
	if len(data) < 1+8+4+4 {
		return nil, fmt.Errorf("storage: shard map image truncated (%d bytes)", len(data))
	}
	if data[0] != shardMapVersion {
		return nil, fmt.Errorf("storage: shard map version %d unsupported", data[0])
	}
	epoch := binary.BigEndian.Uint64(data[1:])
	n := int(binary.BigEndian.Uint32(data[9:]))
	nr := int(binary.BigEndian.Uint32(data[13:]))
	if n < 1 || n > MaxSlots {
		return nil, fmt.Errorf("storage: shard map logical count %d out of range", n)
	}
	if nr < 1 || len(data) != 17+nr*12 {
		return nil, fmt.Errorf("storage: shard map image length %d does not match %d ranges", len(data), nr)
	}
	rs := make([]Range, nr)
	for i := range rs {
		off := 17 + i*12
		rs[i].Start = binary.BigEndian.Uint64(data[off:])
		rs[i].Shard = int(binary.BigEndian.Uint32(data[off+8:]))
		if rs[i].Shard < 0 || rs[i].Shard >= MaxSlots {
			return nil, fmt.Errorf("storage: shard map range %d routes to invalid shard %d", i, rs[i].Shard)
		}
		if i == 0 && rs[i].Start != 0 {
			return nil, fmt.Errorf("storage: shard map does not cover id 0")
		}
		if i > 0 && rs[i].Start <= rs[i-1].Start {
			return nil, fmt.Errorf("storage: shard map range starts not ascending at %d", i)
		}
	}
	return &ShardMap{epoch: epoch, n: n, ranges: rs}, nil
}
