// Package obs is Ode's observability layer: lock-free counters, gauges
// and fixed-bucket latency histograms, cheap enough to live on the
// commit hot path, plus the tracer span machinery (trace.go) and the
// Prometheus-style text exposition helpers (expo.go).
//
// The overhead contract (DESIGN.md §11): recording a sample is a
// handful of uncontended atomic adds — no locks, no allocation, no
// time formatting. Anything more expensive (quantile estimation, text
// rendering) happens at read time on an immutable HistSnapshot.
//
// The package deliberately imports nothing but the standard library so
// every other internal package may depend on it.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value (may go down).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the number of histogram buckets. Bucket 0 holds the
// value 0 exactly; bucket k (1 ≤ k < NumBuckets-1) holds values in
// [2^(k-1), 2^k); the last bucket absorbs everything at or above
// 2^(NumBuckets-2). With 48 buckets the overflow threshold is 2^46 ns
// ≈ 19.5 hours, far beyond any latency this system records.
const NumBuckets = 48

// bucketOf maps a value to its bucket index: the value's bit length,
// clamped into the overflow bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// Prometheus "le" label value). The overflow bucket's bound is
// MaxUint64.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// lock-free and allocation-free: one atomic add into the bucket, one
// into the running sum, and a CAS loop for the max (which almost
// always exits on the first load). Snapshots are not linearizable —
// a snapshot taken mid-Observe may include the bucket count but not
// yet the sum — which is acceptable for monitoring and stated here so
// nobody builds exact accounting on Sum alone; Count (the bucket
// total) is what the reconciliation tests assert on.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds (negative clamps
// to zero: the monotonic clock can run backwards across suspend on
// some platforms and a histogram must never panic for it).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is an immutable copy of a Histogram. All estimation
// happens here, off the hot path.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64 // total samples (sum of Counts)
	Sum    uint64
	Max    uint64
}

// Mean returns the arithmetic mean of the recorded samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1): the upper bound of
// the bucket holding the sample of rank ceil(q·Count), clamped to the
// observed Max. The estimate is exact for bucket 0 and otherwise
// overshoots the true sample by less than the width of its bucket —
// the "within one bucket width" contract the property tests verify.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			u := BucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// Merge adds o's samples into s. Merging the snapshots of concurrent
// recorders is equivalent to having recorded every sample into one
// histogram (bucket counts and sums are plain additions; max is max).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// P50 returns the median estimate.
func (s HistSnapshot) P50() uint64 { return s.Quantile(0.50) }

// P95 returns the 95th-percentile estimate.
func (s HistSnapshot) P95() uint64 { return s.Quantile(0.95) }

// P99 returns the 99th-percentile estimate.
func (s HistSnapshot) P99() uint64 { return s.Quantile(0.99) }

// Metrics is the registry of every counter, gauge and histogram the
// engine maintains. One instance is shared by the transaction manager,
// the WAL, the buffer pool and the engine; a nil *Metrics disables
// instrumentation entirely (the NoMetrics benchmark baseline).
type Metrics struct {
	// Pool activity. DirtyPages is the pages modified since the last
	// checkpoint, which the pool holds inside its capacity and cannot
	// evict.
	PoolHits      Counter
	PoolMisses    Counter
	PoolEvictions Counter
	DirtyPages    Gauge

	// What commits staged for the log, by page-record kind: a full image
	// the first time a page is logged since the log was last reset, a
	// delta after that. The bytes are the framed records as the log holds
	// them, so (image bytes + delta bytes) ÷ user bytes is the log's write
	// amplification, short only of the begin and commit records.
	WALPageImages     Counter
	WALPageImageBytes Counter
	WALPageDeltas     Counter
	WALPageDeltaBytes Counter

	// Automatic checkpoints by the trigger that fired: the log reached
	// CheckpointBytes, or dirty pages reached the pool's share
	// (storage.Pool.DirtyDue). Explicit Checkpoint calls and Close count
	// under neither.
	CheckpointsByWALBytes   Counter
	CheckpointsByDirtyPages Counter

	// Readers: ReaderPins counts every read transaction admitted since
	// open and ActiveReaders the ones in flight, both where the
	// transaction begins and ends (internal/txn), whatever snapshot it
	// shares; ReadSnapshotBuilds counts the snapshots built for them, so
	// 1 − builds/pins is the share of reads that reused one.
	// SnapshotPages tracks copy-on-write snapshot pages currently
	// retained for pinned epochs.
	ReaderPins         Counter
	ActiveReaders      Gauge
	ReadSnapshotBuilds Counter
	SnapshotPages      Gauge

	// Tracer events dropped because the bounded queue was full (or a
	// tracer panic was swallowed mid-delivery).
	TracerDropped Counter

	// Latency and size distributions. The *NS histograms record
	// nanoseconds.
	CommitLatencyNS Histogram // whole Update: fn + staging + group fsync wait
	FsyncLatencyNS  Histogram // one WAL Sync call
	CheckpointNS    Histogram // one checkpoint: flush + WAL reset
	BatchSize       Histogram // transactions per group-commit fsync
	DprevWalk       Histogram // versions visited per History call
	TprevWalk       Histogram // versions visited per AsOfWalk call

	// Delta storage tier (DESIGN.md §14). Demotions re-encode a full
	// payload as a delta against its D-parent; promotions insert a full
	// anchor to bound chain depth. DeltaBytesSaved accumulates the
	// full-minus-delta payload bytes reclaimed by demotions (gross — a
	// later promotion re-spends the bytes but does not subtract here).
	DeltaDemotions  Counter
	DeltaPromotions Counter
	DeltaBytesSaved Counter
	DeltaChainLen   Histogram // payload links walked per materialisation

	// Background compactor activity: passes over a shard's object
	// table, objects examined, and the latency of one compaction
	// transaction.
	CompactPasses  Counter
	CompactObjects Counter
	CompactNS      Histogram

	// Batched id allocation (core/alloc.go): leases taken from the
	// persistent counters and ids handed out from them. A healthy ratio
	// approaches allocBatch ids per lease; a ratio near 1 means leases
	// are being dropped (aborts) as fast as they are taken.
	AllocLeases Counter
	AllocIDs    Counter
}

// New returns an empty Metrics registry.
func New() *Metrics { return &Metrics{} }
