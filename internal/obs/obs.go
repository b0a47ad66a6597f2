// Package obs is Ode's observability layer: lock-free counters, gauges
// and fixed-bucket latency histograms, cheap enough to live on the
// commit hot path, plus the tracer span machinery (trace.go) and the
// Prometheus-style text exposition helpers (expo.go).
//
// The overhead contract (DESIGN.md §11): recording a sample is a
// handful of atomic adds — no locks, no allocation, no time formatting.
// A counter or gauge add lands on the caller's stripe, a cache line of
// its own that another CPU's goroutine seldom writes, and a read sums
// the stripes. Anything more expensive (quantile estimation, text
// rendering) happens at read time on an immutable HistSnapshot.
//
// The package deliberately imports nothing but the standard library so
// every other internal package may depend on it.
package obs

import (
	"math"
	"math/bits"
	"reflect"
	"sync/atomic"
	"time"
	"unsafe"
)

// Stripes is how many cells a Counter or a Gauge spreads its adds over.
const (
	stripeBits = 3
	Stripes    = 1 << stripeBits
)

// Stripe returns the calling goroutine's stripe, in [0, Stripes): a hash
// of the address of a local on its stack. Goroutines run on stacks of
// their own, so two on two CPUs land on different stripes 7 times in 8,
// and one goroutine calling from one site lands on the same stripe each
// time until its stack moves. It allocates nothing and writes nothing.
func Stripe() int {
	var local byte
	h := uint64(uintptr(unsafe.Pointer(&local))) >> 10      // stacks are ≥ 2 KiB apart
	return int(h * 0x9e3779b97f4a7c15 >> (64 - stripeBits)) // Fibonacci hashing
}

// stripes are the cells of a Counter or a Gauge, one cache line each, so
// goroutines adding on different stripes never write one line. A Gauge
// adds two's-complement: the cells wrap and their sum does not.
type stripes [Stripes]struct {
	n atomic.Uint64
	_ [56]byte // the rest of the line
}

func (s *stripes) add(n uint64) { s[Stripe()].n.Add(n) }

// sum reads the cells one by one: an add that lands during the read is
// in it or not, whole.
func (s *stripes) sum() uint64 {
	var t uint64
	for i := range s {
		t += s[i].n.Load()
	}
	return t
}

// Counter is a monotonically increasing lock-free counter, striped. Its
// cells only grow, so successive Loads by one reader never decrease.
type Counter struct{ s stripes }

// Inc adds one.
func (c *Counter) Inc() { c.s.add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.s.add(n) }

// Load returns the current value: the sum of the stripes.
func (c *Counter) Load() uint64 { return c.s.sum() }

// Gauge is a lock-free instantaneous value (may go down), striped like
// a Counter.
type Gauge struct{ s stripes }

// Inc adds one.
func (g *Gauge) Inc() { g.s.add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.s.add(^uint64(0)) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.s.add(uint64(n)) }

// AddAt adds n on stripe s, a value Stripe returned: a holder that must
// give back what it added, from wherever it ends, records its stripe.
func (g *Gauge) AddAt(s int, n int64) { g.s[s].n.Add(uint64(n)) }

// Load returns the current value: the sum of the stripes.
func (g *Gauge) Load() int64 { return int64(g.s.sum()) }

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

// Metrics is a registry: one cell for every counter, gauge and histogram
// the engine maintains. A database has one per shard — shared by that
// shard's transaction manager, log and buffer pool, and holding what
// happens on that shard — and one at the coordinator, holding what
// belongs to no shard in particular (readers, whole transactions, the
// decision log, the engine's walks and compaction). A Manager, Log or
// Pool used on its own has one of its own. There is always one: a
// recording site never asks.
//
// A cell's field is its whole declaration. The tags give the family it
// is exposed as (series, help) and the registries it is recorded in
// (scope: shard, db, or both), which are the ones its total is summed
// over; the field's name is also the name of the ode.Metrics field that
// reports it, where there is one. Adding a series is a field here and
// the site that records into it (DESIGN.md §11).
type Metrics struct {
	// Pool activity. DirtyPages is the pages modified since the last
	// checkpoint, which the pool holds inside its capacity and cannot
	// evict; SnapshotPages the copy-on-write snapshot pages currently
	// retained for pinned epochs.
	PoolHits      Counter `series:"ode_pool_hits_total" scope:"shard" help:"Buffer-pool page hits."`
	PoolMisses    Counter `series:"ode_pool_misses_total" scope:"shard" help:"Buffer-pool page misses (faulted from disk)."`
	PoolEvictions Counter `series:"ode_pool_evictions_total" scope:"shard" help:"Clean pages evicted from the buffer pool."`
	DirtyPages    Gauge   `series:"ode_pool_dirty_pages" scope:"shard" help:"Pages modified since the last checkpoint, held inside the pool's capacity."`
	SnapshotPages Gauge   `series:"ode_snapshot_pages" scope:"shard" help:"Copy-on-write snapshot pages retained for pinned epochs."`

	// What commits staged for the log, by page-record kind: a full image
	// the first time a page is logged since the log was last reset, a
	// delta after that. The bytes are the framed records as the log holds
	// them, so (image bytes + delta bytes) ÷ user bytes is the log's write
	// amplification, short only of the begin and commit records.
	WALPageImages     Counter `series:"ode_wal_page_images_total" scope:"shard" help:"Pages staged for the WAL as full images (first touch since the log was reset)."`
	WALPageImageBytes Counter `series:"ode_wal_page_image_bytes_total" scope:"shard" help:"Bytes of full-image page records staged for the WAL."`
	WALPageDeltas     Counter `series:"ode_wal_page_deltas_total" scope:"shard" help:"Pages staged for the WAL as byte-range deltas."`
	WALPageDeltaBytes Counter `series:"ode_wal_page_delta_bytes_total" scope:"shard" help:"Bytes of page-delta records staged for the WAL."`

	// A log's own counts (wal.Log): records appended, of every kind, and
	// the latency of each Sync that reached the device — whose count is
	// the number of syncs. The decision log is the coordinator's: it is in
	// the totals and in no shard's series.
	WALAppends      Counter   `series:"ode_wal_appends_total" scope:"shard,db" help:"Records appended to the write-ahead logs (every shard's, and the decision log)."`
	WALFsyncLatency Histogram `series:"ode_wal_fsync_latency_ns" scope:"shard,db" help:"WAL fsync latency."`

	// Automatic checkpoints by the trigger that fired: the log reached
	// CheckpointBytes, or dirty pages reached the pool's share
	// (storage.Pool.DirtyDue). Each is counted when a checkpoint is run
	// for it, by the checkpointer or by a writer past the slack, whether
	// it then succeeds or fails; explicit Checkpoint calls and Close count
	// under neither. CheckpointDuration times every checkpoint that
	// succeeds: an automatic one on its shard, an explicit one (every
	// shard, then the decision log) once, at the coordinator.
	CheckpointsByWALBytes   Counter   `series:"ode_checkpoints_by_wal_bytes_total" scope:"shard" help:"Automatic checkpoints run because the WAL reached CheckpointBytes (failed ones included)."`
	CheckpointsByDirtyPages Counter   `series:"ode_checkpoints_by_dirty_pages_total" scope:"shard" help:"Automatic checkpoints run because dirty pages reached their share of the pool (failed ones included)."`
	CheckpointDuration      Histogram `series:"ode_checkpoint_duration_ns" scope:"shard,db" help:"Checkpoint duration (page flush + WAL reset)."`

	// WriterLockWait is each writer's wait in lockWriter for its shard's
	// writer mutex, counting the checkpoint a writer past the slack waits
	// out or runs: the commit-side stall a checkpoint or a convoy costs.
	WriterLockWait Histogram `series:"ode_writer_lock_wait_ns" scope:"shard" help:"Writer wait for a shard's writer mutex, including a checkpoint run or waited out past the slack."`
	// WriterLockHold is how long each hold of a shard's writer mutex
	// lasted, observed as it is released (txn.Manager.unlockWriter): a
	// long WriterLockWait behind long holds is a convoy, one behind short
	// holds a late wake.
	WriterLockHold Histogram `series:"ode_writer_lock_hold_ns" scope:"shard" help:"How long a shard's writer mutex was held, observed at each release."`

	// Commits. Commits and Aborts count a write transaction once: on its
	// shard if it ended in that shard's pipeline alone, else at the
	// coordinator. A committer adds to Commits before it observes
	// BatchSize (txn.Manager.Stats). BatchSize is the transactions one
	// committer batch covered (one fsync each unless NoSync): a shard
	// committer's batch, or, at the coordinator, the one cross-shard
	// transaction a decision record
	// commits. FlushesInFlight is, at each claim of a shard's committer,
	// how many of its batches are in flight counting the one claimed: at
	// the bound on overlapping fsyncs (4), the next claim waits — a
	// power-of-two bucket of its own.
	// CommitLatency is the whole write transaction — fn, staging and the
	// wait for the fsync — observed by whoever ran it: the coordinator,
	// or a Manager used on its own.
	Commits         Counter   `series:"ode_commits_total" scope:"shard,db" help:"Committed write transactions."`
	Aborts          Counter   `series:"ode_aborts_total" scope:"shard,db" help:"Rolled-back write transactions."`
	BatchSize       Histogram `series:"ode_commit_batch_size" scope:"shard,db" help:"Transactions covered by one committer batch (one fsync each unless NoSync; a shard's batches' fsyncs may overlap)."`
	FlushesInFlight Histogram `series:"ode_commit_flushes_in_flight" scope:"shard" help:"Batches a shard's committer has in flight (claimed, not yet acknowledged) at each claim, counting the one claimed; at 4 the next claim waits."`
	CommitLatency   Histogram `series:"ode_commit_latency_ns" scope:"db" help:"Whole-Update commit latency (fn + staging + fsync wait)."`

	// Readers: ReaderPins counts every read transaction admitted since
	// open and ActiveReaders the ones in flight, both where the
	// transaction begins and ends (internal/txn), whatever snapshot it
	// shares; ReadSnapshotBuilds counts the snapshots built for them, so
	// 1 − builds/pins is the share of reads that reused one.
	ReaderPins         Counter `series:"ode_reader_pins_total" scope:"db" help:"Views admitted since open (each holds one read snapshot for its duration)."`
	ActiveReaders      Gauge   `series:"ode_active_readers" scope:"db" help:"Views currently in flight."`
	ReadSnapshotBuilds Counter `series:"ode_read_snapshot_builds_total" scope:"db" help:"Read snapshots built; Views between two commits share one."`

	// Write-attempt restarts by cause (txn.Coordinator.Write): a join
	// below a shard the attempt held whose try-lock failed, or a shard-map
	// flip committed since the attempt began. TryLockJoins counts the
	// joins below a held shard whose try-lock succeeded instead.
	RestartsJoinOrder Counter `series:"ode_restarts_join_order_total" scope:"db" help:"Write attempts restarted by a join below a held shard whose try-lock failed."`
	RestartsRouting   Counter `series:"ode_restarts_routing_total" scope:"db" help:"Write attempts restarted by a shard-map flip committed since they began."`
	TryLockJoins      Counter `series:"ode_trylock_joins_total" scope:"db" help:"Joins below a held shard that took its writer mutex by try-lock."`

	// Tracer events dropped because the bounded queue was full (or a
	// tracer panic was swallowed mid-delivery).
	TracerDropped Counter `series:"ode_tracer_dropped_total" scope:"db" help:"Tracer span events dropped past the bounded queue."`

	// Versions visited per History and per AsOfWalk call.
	DprevWalkLen Histogram `series:"ode_dprev_walk_len" scope:"db" help:"Versions visited per History (derived-from chain) walk."`
	TprevWalkLen Histogram `series:"ode_tprev_walk_len" scope:"db" help:"Versions visited per AsOfWalk (temporal chain) walk."`

	// Delta storage tier (DESIGN.md §14). Demotions re-encode a full
	// payload as a delta against its D-parent; promotions insert a full
	// anchor to bound chain depth. DeltaBytesSaved accumulates the
	// full-minus-delta payload bytes reclaimed by demotions (gross — a
	// later promotion re-spends the bytes but does not subtract here).
	// DeltaChainLen is the payload links walked per materialisation.
	DeltaDemotions  Counter   `series:"ode_delta_demotions_total" scope:"db" help:"Full payloads re-encoded as deltas against their D-parent."`
	DeltaPromotions Counter   `series:"ode_delta_promotions_total" scope:"db" help:"Delta payloads re-anchored as full copies."`
	DeltaBytesSaved Counter   `series:"ode_delta_bytes_saved_total" scope:"db" help:"Cumulative payload-heap bytes reclaimed by demotion."`
	DeltaChainLen   Histogram `series:"ode_delta_chain_len" scope:"db" help:"Payload records read per delta-chain materialisation."`

	// Compaction sweeps: passes over a shard's object table, objects
	// examined, and the latency of one compaction transaction.
	CompactPasses   Counter   `series:"ode_compact_passes_total" scope:"db" help:"Completed whole-store compaction passes."`
	CompactObjects  Counter   `series:"ode_compact_objects_total" scope:"db" help:"Objects examined by compaction sweeps."`
	CompactDuration Histogram `series:"ode_compact_duration_ns" scope:"db" help:"Duration of one bounded compaction transaction."`

	// Batched id allocation (storage.TxView.NextID): leases taken from
	// the persistent counters and ids handed out from them. A healthy
	// ratio approaches 64 ids per lease (the lease size).
	AllocLeases Counter `series:"ode_alloc_leases_total" scope:"shard" help:"Batched id-allocator leases taken from the superblock counters."`
	AllocIDs    Counter `series:"ode_alloc_ids_total" scope:"shard" help:"Object/version ids handed out from allocator leases."`
}

// New returns an empty Metrics registry.
func New() *Metrics { return &Metrics{} }

// Series is the declaration of one cell of Metrics, read off its field.
type Series struct {
	Field           string // the cell's field in Metrics
	Name, Help      string // the family it is exposed as
	PerShard, PerDB bool   // the registries it is recorded in: every shard's, the coordinator's
	index           int
}

// Registry lists the cells of Metrics in field order. It is built once,
// at start-up; recording into a cell never goes through it.
var Registry = func() []Series {
	t := reflect.TypeOf(Metrics{})
	out := make([]Series, t.NumField())
	for i := range out {
		f := t.Field(i)
		scope := f.Tag.Get("scope")
		out[i] = Series{
			Field: f.Name, Name: f.Tag.Get("series"), Help: f.Tag.Get("help"),
			PerShard: scope == "shard" || scope == "shard,db",
			PerDB:    scope == "db" || scope == "shard,db",
			index:    i,
		}
	}
	return out
}()

// Read returns what the cell holds in m: a Counter's count as a uint64, a
// Gauge's level as an int64, a Histogram's snapshot.
func (s Series) Read(m *Metrics) any {
	switch c := reflect.ValueOf(m).Elem().Field(s.index).Addr().Interface().(type) {
	case *Counter:
		return c.Load()
	case *Gauge:
		return c.Load()
	case *Histogram:
		return c.Snapshot()
	}
	panic("obs: " + s.Field + " is not a Counter, a Gauge or a Histogram")
}
