// Observability surface: db.Metrics() histogram snapshots, the Tracer
// hook re-exports, the Prometheus-style text exposition (shared by
// odeshell's .metrics command and the optional debug HTTP listener).
// See DESIGN.md §11.
package ode

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"ode/internal/obs"
)

// Tracer receives structured span events from the commit pipeline. It
// is invoked on a dedicated goroutine behind a bounded queue — never
// on a commit path — so implementations may block or panic without
// affecting the database (overflowing or panicked events are dropped
// and counted).
type Tracer = obs.Tracer

// SpanEvent is one structured trace event; Kind tells which stage of
// the transaction lifecycle it marks.
type SpanEvent = obs.SpanEvent

// SpanKind identifies a span event.
type SpanKind = obs.SpanKind

// Span event kinds (see DESIGN.md §11 for the taxonomy).
const (
	SpanBegin      = obs.SpanBegin
	SpanPrepare    = obs.SpanPrepare
	SpanFsync      = obs.SpanFsync
	SpanPublish    = obs.SpanPublish
	SpanAbort      = obs.SpanAbort
	SpanCheckpoint = obs.SpanCheckpoint
)

// DefaultTracerBuffer is the tracer queue capacity when
// Options.TracerBuffer is zero.
const DefaultTracerBuffer = obs.DefaultTracerBuffer

// HistSnapshot is a point-in-time copy of one latency/size histogram:
// fixed power-of-two buckets with Quantile/P50/P95/P99/Mean/Max
// estimation (estimates are exact to within one bucket width).
type HistSnapshot = obs.HistSnapshot

// Metrics is the full observability snapshot: every Stats counter plus
// the registry's gauges and histogram snapshots. The zero value is
// what a NoMetrics database returns (Stats fields still populated).
type Metrics struct {
	Stats

	// Buffer-pool activity. DirtyPages is the pages modified since the
	// last checkpoint, held inside PoolPages until it flushes them.
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	DirtyPages    int64

	// What commits staged for the write-ahead log, by page-record kind: a
	// full image the first time a page is logged since its log was last
	// reset, a delta of the changed byte ranges after that. The bytes are
	// the framed records, so their sum over the payload bytes written is
	// the log's write amplification.
	WALPageImages     uint64
	WALPageImageBytes uint64
	WALPageDeltas     uint64
	WALPageDeltaBytes uint64
	// Automatic checkpoints by the trigger that fired: the log reached
	// CheckpointBytes, or dirty pages reached three quarters of the pool.
	CheckpointsByWALBytes   uint64
	CheckpointsByDirtyPages uint64

	// Readers: ReaderPins counts the Views admitted since open and
	// ActiveReaders the ones in flight. Views share one read snapshot
	// between commits; ReadSnapshotBuilds counts the snapshots built, so
	// 1 − ReadSnapshotBuilds/ReaderPins is the share of Views that reused
	// one. SnapshotPages is the copy-on-write pages currently retained
	// for pinned epochs.
	ReaderPins         uint64
	ActiveReaders      int64
	ReadSnapshotBuilds uint64
	SnapshotPages      int64

	// TracerDropped counts span events discarded because the tracer
	// queue was full or the tracer panicked mid-delivery.
	TracerDropped uint64

	// Delta storage tier (all zero unless Options.DeltaTier). Demotions
	// re-encode full payloads as deltas, promotions insert full anchors
	// back; BytesSaved is the cumulative payload-heap reduction.
	DeltaDemotions  uint64
	DeltaPromotions uint64
	DeltaBytesSaved uint64
	// Compaction sweeps: completed whole-store passes and objects
	// examined (by both explicit Compact calls and the background
	// compactor).
	CompactPasses  uint64
	CompactObjects uint64
	// Materialisation cache counters and occupancy.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheBytes     int64
	CacheEntries   int

	// Dereference cache occupancy (the hit/miss/eviction/bytes counters
	// live on the embedded Stats).
	DerefCacheEntries int

	// Distributions. The latency histograms are in nanoseconds.
	CommitLatency      HistSnapshot // whole Update: fn + staging + fsync wait
	WALFsyncLatency    HistSnapshot // one WAL fsync
	CheckpointDuration HistSnapshot // flush + WAL reset
	BatchSize          HistSnapshot // transactions per group-commit fsync
	DprevWalkLen       HistSnapshot // versions visited per History call
	TprevWalkLen       HistSnapshot // versions visited per AsOfWalk call
	DeltaChainLen      HistSnapshot // payload links walked per delta materialisation
	CompactDuration    HistSnapshot // one bounded compaction transaction
}

// Metrics returns the current observability snapshot. Counter loads
// are lock-free; the Commits/Batches pair is seqlock-consistent (see
// Stats). Histogram snapshots are taken bucket-by-bucket and may
// straddle a concurrent Observe by one sample — fine for monitoring,
// and the counters the soak tests reconcile on are exact at quiescence.
func (db *DB) Metrics() Metrics {
	var ms Metrics
	ms.Stats = db.Stats()
	if cs, ok := db.eng.MatCacheStats(); ok {
		ms.CacheHits = cs.Hits
		ms.CacheMisses = cs.Misses
		ms.CacheEvictions = cs.Evictions
		ms.CacheBytes = cs.Bytes
		ms.CacheEntries = cs.Entries
	}
	if ds, ok := db.eng.DerefCacheStats(); ok {
		ms.DerefCacheEntries = ds.Entries
	}
	m := db.coord.Metrics()
	if m == nil {
		return ms // NoMetrics: counters only
	}
	// The coordinator registry: whole-transaction latency, decision-log
	// fsyncs, traversal walks.
	ms.PoolHits = m.PoolHits.Load()
	ms.PoolMisses = m.PoolMisses.Load()
	ms.PoolEvictions = m.PoolEvictions.Load()
	ms.ReaderPins = m.ReaderPins.Load()
	ms.ActiveReaders = m.ActiveReaders.Load()
	ms.ReadSnapshotBuilds = m.ReadSnapshotBuilds.Load()
	ms.SnapshotPages = m.SnapshotPages.Load()
	ms.TracerDropped = m.TracerDropped.Load()
	ms.CommitLatency = m.CommitLatencyNS.Snapshot()
	ms.WALFsyncLatency = m.FsyncLatencyNS.Snapshot()
	ms.CheckpointDuration = m.CheckpointNS.Snapshot()
	ms.BatchSize = m.BatchSize.Snapshot()
	ms.DprevWalkLen = m.DprevWalk.Snapshot()
	ms.TprevWalkLen = m.TprevWalk.Snapshot()
	// Delta-tier families are recorded on the coordinator registry only
	// (engine-level transactions), so no per-shard rollup below.
	ms.DeltaDemotions = m.DeltaDemotions.Load()
	ms.DeltaPromotions = m.DeltaPromotions.Load()
	ms.DeltaBytesSaved = m.DeltaBytesSaved.Load()
	ms.CompactPasses = m.CompactPasses.Load()
	ms.CompactObjects = m.CompactObjects.Load()
	ms.DeltaChainLen = m.DeltaChainLen.Snapshot()
	ms.CompactDuration = m.CompactNS.Snapshot()
	// Roll the per-shard registries up: counters and gauges sum,
	// histograms merge bucket-wise. Physical shards, not logical: a
	// merged-away shard still serves the ranges it kept. (The reader
	// families are not here: a View begins and ends at the
	// coordinator, on no shard in particular.)
	for _, sm := range db.coord.Shards() {
		r := sm.Metrics()
		if r == nil {
			continue
		}
		ms.PoolHits += r.PoolHits.Load()
		ms.PoolMisses += r.PoolMisses.Load()
		ms.PoolEvictions += r.PoolEvictions.Load()
		ms.DirtyPages += r.DirtyPages.Load()
		ms.WALPageImages += r.WALPageImages.Load()
		ms.WALPageImageBytes += r.WALPageImageBytes.Load()
		ms.WALPageDeltas += r.WALPageDeltas.Load()
		ms.WALPageDeltaBytes += r.WALPageDeltaBytes.Load()
		ms.CheckpointsByWALBytes += r.CheckpointsByWALBytes.Load()
		ms.CheckpointsByDirtyPages += r.CheckpointsByDirtyPages.Load()
		ms.SnapshotPages += r.SnapshotPages.Load()
		ms.TracerDropped += r.TracerDropped.Load()
		ms.CommitLatency.Merge(r.CommitLatencyNS.Snapshot())
		ms.WALFsyncLatency.Merge(r.FsyncLatencyNS.Snapshot())
		ms.CheckpointDuration.Merge(r.CheckpointNS.Snapshot())
		ms.BatchSize.Merge(r.BatchSize.Snapshot())
		ms.DprevWalkLen.Merge(r.DprevWalk.Snapshot())
		ms.TprevWalkLen.Merge(r.TprevWalk.Snapshot())
	}
	return ms
}

// WriteMetrics renders the full metrics page in Prometheus text
// exposition format.
func (db *DB) WriteMetrics(w io.Writer) error {
	ms := db.Metrics()
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"ode_objects", "Live objects.", ms.Objects},
		{"ode_versions", "Live versions across all objects.", ms.Versions},
		{"ode_commits_total", "Committed write transactions.", ms.Commits},
		{"ode_aborts_total", "Rolled-back write transactions.", ms.Aborts},
		{"ode_checkpoints_total", "Checkpoints completed.", ms.Checkpoints},
		{"ode_commit_batches_total", "Group-commit fsync batches.", ms.Batches},
		{"ode_recovered_txns_total", "Transactions replayed by crash recovery at open.", ms.RecoveredTxns},
		{"ode_pool_hits_total", "Buffer-pool page hits.", ms.PoolHits},
		{"ode_pool_misses_total", "Buffer-pool page misses (faulted from disk).", ms.PoolMisses},
		{"ode_pool_evictions_total", "Clean pages evicted from the buffer pool.", ms.PoolEvictions},
		{"ode_wal_page_images_total", "Pages staged for the WAL as full images (first touch since the log was reset).", ms.WALPageImages},
		{"ode_wal_page_image_bytes_total", "Bytes of full-image page records staged for the WAL.", ms.WALPageImageBytes},
		{"ode_wal_page_deltas_total", "Pages staged for the WAL as byte-range deltas.", ms.WALPageDeltas},
		{"ode_wal_page_delta_bytes_total", "Bytes of page-delta records staged for the WAL.", ms.WALPageDeltaBytes},
		{"ode_checkpoints_by_wal_bytes_total", "Automatic checkpoints triggered by the WAL reaching CheckpointBytes.", ms.CheckpointsByWALBytes},
		{"ode_checkpoints_by_dirty_pages_total", "Automatic checkpoints triggered by dirty pages reaching their share of the pool.", ms.CheckpointsByDirtyPages},
		{"ode_reader_pins_total", "Views admitted since open (each holds one read snapshot for its duration).", ms.ReaderPins},
		{"ode_read_snapshot_builds_total", "Read snapshots built; Views between two commits share one.", ms.ReadSnapshotBuilds},
		{"ode_tracer_dropped_total", "Tracer span events dropped past the bounded queue.", ms.TracerDropped},
		{"ode_delta_demotions_total", "Full payloads re-encoded as deltas against their D-parent.", ms.DeltaDemotions},
		{"ode_delta_promotions_total", "Delta payloads re-anchored as full copies.", ms.DeltaPromotions},
		{"ode_delta_bytes_saved_total", "Cumulative payload-heap bytes reclaimed by demotion.", ms.DeltaBytesSaved},
		{"ode_delta_cache_hits_total", "Materialisation cache hits.", ms.CacheHits},
		{"ode_delta_cache_misses_total", "Materialisation cache misses.", ms.CacheMisses},
		{"ode_delta_cache_evictions_total", "Materialisation cache LRU evictions.", ms.CacheEvictions},
		{"ode_compact_passes_total", "Completed whole-store compaction passes.", ms.CompactPasses},
		{"ode_compact_objects_total", "Objects examined by compaction sweeps.", ms.CompactObjects},
		{"ode_derefcache_hits_total", "Dereference cache hits (latest-version reads served without page decoding).", ms.DerefCacheHits},
		{"ode_derefcache_misses_total", "Dereference cache misses.", ms.DerefCacheMisses},
		{"ode_derefcache_evictions_total", "Dereference cache LRU evictions.", ms.DerefCacheEvictions},
		{"ode_alloc_leases_total", "Batched id-allocator leases taken from the superblock counters.", ms.AllocLeases},
		{"ode_alloc_ids_total", "Object/version ids handed out from allocator leases.", ms.AllocIDs},
	}
	for _, c := range counters {
		if err := obs.WriteCounter(w, c.name, c.help, c.v); err != nil {
			return err
		}
	}
	if err := obs.WriteGauge(w, "ode_wal_bytes", "Current WAL size in bytes.", ms.WALBytes); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_pool_dirty_pages", "Pages modified since the last checkpoint, held inside the pool's capacity.", ms.DirtyPages); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_active_readers", "Views currently in flight.", ms.ActiveReaders); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_snapshot_pages", "Copy-on-write snapshot pages retained for pinned epochs.", ms.SnapshotPages); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_delta_cache_bytes", "Materialisation cache occupancy in bytes.", ms.CacheBytes); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_delta_cache_entries", "Materialisation cache entry count.", int64(ms.CacheEntries)); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_derefcache_bytes", "Dereference cache occupancy in bytes.", ms.DerefCacheBytes); err != nil {
		return err
	}
	if err := obs.WriteGauge(w, "ode_derefcache_entries", "Dereference cache entry count.", int64(ms.DerefCacheEntries)); err != nil {
		return err
	}
	hists := []struct {
		name, help string
		s          HistSnapshot
	}{
		{"ode_commit_latency_ns", "Whole-Update commit latency (fn + staging + fsync wait).", ms.CommitLatency},
		{"ode_wal_fsync_latency_ns", "WAL fsync latency.", ms.WALFsyncLatency},
		{"ode_checkpoint_duration_ns", "Checkpoint duration (page flush + WAL reset).", ms.CheckpointDuration},
		{"ode_commit_batch_size", "Transactions covered by one group-commit fsync.", ms.BatchSize},
		{"ode_dprev_walk_len", "Versions visited per History (derived-from chain) walk.", ms.DprevWalkLen},
		{"ode_tprev_walk_len", "Versions visited per AsOfWalk (temporal chain) walk.", ms.TprevWalkLen},
		{"ode_delta_chain_len", "Payload records read per delta-chain materialisation.", ms.DeltaChainLen},
		{"ode_compact_duration_ns", "Duration of one bounded compaction transaction.", ms.CompactDuration},
	}
	for _, h := range hists {
		if err := obs.WriteHistogram(w, h.name, h.help, h.s); err != nil {
			return err
		}
	}
	// Routing / reshard progress. Epoch 0 is the static map a database
	// starts with; every committed range flip bumps it.
	rp := db.eng.ReshardProgress()
	active := int64(0)
	if rp.Active {
		active = 1
	}
	reshardGauges := []struct {
		name, help string
		v          int64
	}{
		{"ode_routing_epoch", "Shard-map epoch (bumped by every committed routing change).", int64(db.coord.Map().Epoch())},
		{"ode_shards_logical", "Logical shard count (new allocations spread over these).", int64(db.coord.N())},
		{"ode_shards_physical", "Physical shard files on disk (never shrinks).", int64(db.coord.NumShards())},
		{"ode_reshard_active", "1 while a Reshard is running, else 0.", active},
		{"ode_reshard_target", "Target logical shard count of the current/last Reshard.", int64(rp.Target)},
		{"ode_reshard_chunks_total", "Chunk transactions committed by the current/last Reshard.", int64(rp.Chunks)},
		{"ode_reshard_objects_total", "Objects migrated by the current/last Reshard.", int64(rp.Objects)},
		{"ode_reshard_versions_total", "Version records migrated by the current/last Reshard.", int64(rp.Versions)},
	}
	for _, g := range reshardGauges {
		if err := obs.WriteGauge(w, g.name, g.help, g.v); err != nil {
			return err
		}
	}
	return db.writeShardMetrics(w)
}

// writeShardMetrics renders the per-shard breakdown of the shard-local
// families, labeled shard="<i>", at every shard count. The unlabeled
// families above stay the cross-shard aggregates, so a dashboard built
// on them does not care how many shards there are.
func (db *DB) writeShardMetrics(w io.Writer) error {
	shards := db.coord.Shards()
	label := func(i int) string { return strconv.Itoa(i) }
	var (
		commits, aborts, walBytes []obs.LabeledUint
		hits, misses              []obs.LabeledUint
		dHits, dMisses            []obs.LabeledUint
		allocLeases, allocIDs     []obs.LabeledUint
		fsync, batch              []obs.LabeledHist
	)
	for i, sm := range shards {
		ss := sm.Stats()
		commits = append(commits, obs.LabeledUint{Label: label(i), V: ss.Commits})
		aborts = append(aborts, obs.LabeledUint{Label: label(i), V: ss.Aborts})
		walBytes = append(walBytes, obs.LabeledUint{Label: label(i), V: uint64(ss.WALBytes)})
		if r := sm.Metrics(); r != nil {
			hits = append(hits, obs.LabeledUint{Label: label(i), V: r.PoolHits.Load()})
			misses = append(misses, obs.LabeledUint{Label: label(i), V: r.PoolMisses.Load()})
			fsync = append(fsync, obs.LabeledHist{Label: label(i), S: r.FsyncLatencyNS.Snapshot()})
			batch = append(batch, obs.LabeledHist{Label: label(i), S: r.BatchSize.Snapshot()})
		}
		dh, dm := db.eng.DerefCacheShardStats(i)
		dHits = append(dHits, obs.LabeledUint{Label: label(i), V: dh})
		dMisses = append(dMisses, obs.LabeledUint{Label: label(i), V: dm})
		al, ai := db.eng.AllocShardStats(i)
		allocLeases = append(allocLeases, obs.LabeledUint{Label: label(i), V: al})
		allocIDs = append(allocIDs, obs.LabeledUint{Label: label(i), V: ai})
	}
	counterVecs := []struct {
		name, help string
		s          []obs.LabeledUint
	}{
		{"ode_shard_commits_total", "Committed write transactions per shard (cross-shard transactions count on every shard they touched).", commits},
		{"ode_shard_aborts_total", "Rolled-back write transactions per shard.", aborts},
		{"ode_shard_pool_hits_total", "Buffer-pool page hits per shard.", hits},
		{"ode_shard_pool_misses_total", "Buffer-pool page misses per shard.", misses},
		{"ode_shard_derefcache_hits_total", "Dereference cache hits per shard.", dHits},
		{"ode_shard_derefcache_misses_total", "Dereference cache misses per shard.", dMisses},
		{"ode_shard_alloc_leases_total", "Id-allocator leases taken per shard.", allocLeases},
		{"ode_shard_alloc_ids_total", "Ids handed out from allocator leases per shard.", allocIDs},
	}
	for _, c := range counterVecs {
		if err := obs.WriteCounterVec(w, c.name, c.help, "shard", c.s); err != nil {
			return err
		}
	}
	if err := obs.WriteGaugeVec(w, "ode_shard_wal_bytes", "Current WAL size in bytes per shard.", "shard", walBytes); err != nil {
		return err
	}
	if err := obs.WriteHistogramVec(w, "ode_shard_wal_fsync_latency_ns", "WAL fsync latency per shard.", "shard", fsync); err != nil {
		return err
	}
	return obs.WriteHistogramVec(w, "ode_shard_commit_batch_size", "Transactions covered by one group-commit fsync per shard.", "shard", batch)
}

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Options.DebugAddr was not set. With a ":0" option this is
// how tests (and operators) learn the actual port.
func (db *DB) DebugAddr() string {
	if db.debugLis == nil {
		return ""
	}
	return db.debugLis.Addr().String()
}

// startDebugServer binds the debug listener and serves /metrics and
// /stats until the DB closes.
func (db *DB) startDebugServer(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := db.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(db.Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	db.debugLis = lis
	db.debugSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// Serve returns http.ErrServerClosed on shutdown; anything else
		// means the listener died, which the next scrape will notice.
		_ = db.debugSrv.Serve(lis)
	}()
	return nil
}

// stopDebugServer tears the listener down; safe without one.
func (db *DB) stopDebugServer() {
	if db.debugSrv != nil {
		_ = db.debugSrv.Close()
		db.debugSrv = nil
		db.debugLis = nil
	}
}

// String renders a one-line summary of the snapshot (handy in logs).
func (ms Metrics) String() string {
	return fmt.Sprintf("commits=%d aborts=%d batches=%d p50=%s p99=%s pool=%d/%d",
		ms.Commits, ms.Aborts, ms.Batches,
		time.Duration(ms.CommitLatency.P50()), time.Duration(ms.CommitLatency.P99()),
		ms.PoolHits, ms.PoolHits+ms.PoolMisses)
}
