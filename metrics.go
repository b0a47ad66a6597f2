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
	"reflect"
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

// DefaultTracerBuffer is the tracer queue capacity: the events a slow
// tracer may fall behind by before further ones are dropped and counted.
const DefaultTracerBuffer = obs.DefaultTracerBuffer

// HistSnapshot is a point-in-time copy of one latency/size histogram:
// fixed power-of-two buckets with Quantile/P50/P95/P99/Mean/Max
// estimation (estimates are exact to within one bucket width).
type HistSnapshot = obs.HistSnapshot

// Metrics is the full observability snapshot: every Stats counter plus
// the registries' counters, gauges and histogram snapshots, summed over
// the shards.
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
	// Their sum is the automatic checkpoints the shards ran, failed ones
	// included.
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
	// Compaction sweeps (DB.Compact): completed whole-store passes and
	// objects examined.
	CompactPasses  uint64
	CompactObjects uint64
	// The retired materialisation cache's counters and occupancy: the
	// engine has no such cache any more, so they read 0. They stay while
	// the benchmark's counters read them.
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
	WriterLockWait     HistSnapshot // a writer's wait for its shard's writer mutex
	BatchSize          HistSnapshot // transactions per group-commit fsync
	DprevWalkLen       HistSnapshot // versions visited per History call
	TprevWalkLen       HistSnapshot // versions visited per AsOfWalk call
	DeltaChainLen      HistSnapshot // payload links walked per delta materialisation
	CompactDuration    HistSnapshot // one bounded compaction transaction
}

// Metrics returns the current observability snapshot. Counter loads
// are lock-free, and Commits is loaded after Batches, so it is never
// the smaller (see Stats). Histogram snapshots are taken
// bucket-by-bucket and may straddle a concurrent Observe by one sample —
// fine for monitoring, and the counters the soak tests reconcile on are
// exact at quiescence.
func (db *DB) Metrics() Metrics {
	var ms Metrics
	ms.Stats = db.Stats()
	db.cacheStats(&ms)
	db.fill(&ms)
	return ms
}

// cacheStats copies the dereference cache's occupancy into the snapshot
// (its hit/miss/eviction/bytes counters are Stats').
func (db *DB) cacheStats(ms *Metrics) {
	if ds, ok := db.eng.DerefCacheStats(); ok {
		ms.DerefCacheEntries = ds.Entries
	}
}

// fill reports in dst — a *Stats or a *Metrics — the total of every
// registry series dst has a field for: the field named as the cell is.
func (db *DB) fill(dst any) {
	v := reflect.ValueOf(dst).Elem()
	for _, s := range obs.Registry {
		if f := v.FieldByName(s.Field); f.IsValid() {
			f.Set(reflect.ValueOf(db.total(s)))
		}
	}
}

// total rolls a registry series up over the registries it is recorded
// in: counters and gauges sum, histograms merge bucket-wise. Shards are
// the physical ones, not the logical: a merged-away shard still serves
// the ranges it kept.
func (db *DB) total(s obs.Series) any {
	var regs []*obs.Metrics
	if s.PerDB {
		regs = append(regs, db.coord.Metrics())
	}
	if s.PerShard {
		for _, sm := range db.coord.Shards() {
			regs = append(regs, sm.Metrics())
		}
	}
	var sum any
	for _, r := range regs {
		switch v := s.Read(r).(type) {
		case uint64:
			n, _ := sum.(uint64)
			sum = n + v
		case int64:
			n, _ := sum.(int64)
			sum = n + v
		case HistSnapshot:
			h, _ := sum.(HistSnapshot)
			h.Merge(v)
			sum = h
		}
	}
	return sum
}

// WriteMetrics renders the full metrics page in Prometheus text
// exposition format: one reading of the snapshot, rendered family by
// family — the registries' series, the series table, the per-shard one.
func (db *DB) WriteMetrics(w io.Writer) error {
	ms := reflect.ValueOf(db.Metrics())
	write := func(name, help string, v any) error {
		if n, ok := v.(int); ok {
			v = int64(n)
		}
		return obs.WriteFamily(w, name, help, "", []obs.Sample{{V: v}})
	}
	for _, s := range obs.Registry {
		var v any
		if f := ms.FieldByName(s.Field); f.IsValid() {
			v = f.Interface()
		} else {
			v = db.total(s) // a series the snapshot has no field for
		}
		if err := write(s.Name, s.Help, v); err != nil {
			return err
		}
	}
	for _, s := range seriesTable {
		var v any
		if s.gauge != nil {
			v = s.gauge(db)
		} else {
			v = ms.FieldByName(s.field).Interface()
		}
		if err := write(s.name, s.help, v); err != nil {
			return err
		}
	}
	shards := db.coord.Shards()
	for _, s := range shardSeriesTable {
		samples := make([]obs.Sample, len(shards))
		for i, sm := range shards {
			samples[i] = obs.Sample{Label: strconv.Itoa(i), V: s.value(db, i, sm)}
		}
		if err := obs.WriteFamily(w, s.name, s.help, "shard", samples); err != nil {
			return err
		}
	}
	return nil
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
