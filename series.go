// What /metrics renders beside the registries' cells. A registry series
// is declared on its cell (internal/obs, Metrics); the families here are
// the ones whose value comes from somewhere else — Stats, the caches, the
// routing state — and the per-shard breakdowns. Every family is declared
// exactly once, in one of those three tables; DB.Metrics and
// DB.WriteMetrics (metrics.go) are loops over them. DESIGN.md §11.
package ode

import "ode/internal/txn"

// series is one unlabeled family that no registry records. Its value is
// either a field of the snapshot, named as in Metrics and filled by
// DB.Stats or DB.cacheStats, or a gauge read off the database when the
// page is rendered. Its kind is its value's type: a uint64 is a counter,
// an int64 or int a gauge.
type series struct {
	name, help string
	field      string
	gauge      func(*DB) int64
}

var seriesTable = []series{
	{name: "ode_objects", help: "Live objects.", field: "Objects"},
	{name: "ode_versions", help: "Live versions across all objects.", field: "Versions"},
	{name: "ode_commits_total", help: "Committed write transactions.", field: "Commits"},
	{name: "ode_aborts_total", help: "Rolled-back write transactions.", field: "Aborts"},
	{name: "ode_checkpoints_total", help: "Checkpoints completed.", field: "Checkpoints"},
	{name: "ode_commit_batches_total", help: "Committer batches, one fsync each unless NoSync.", field: "Batches"},
	{name: "ode_recovered_txns_total", help: "Transactions replayed by crash recovery at open.", field: "RecoveredTxns"},
	{name: "ode_wal_bytes", help: "Current WAL size in bytes.", field: "WALBytes"},

	// The retired materialisation cache's families: they read 0 and stay
	// only while the benchmark's counters read the Metrics fields behind
	// them.
	{name: "ode_delta_cache_hits_total", help: "Materialisation cache hits.", field: "CacheHits"},
	{name: "ode_delta_cache_misses_total", help: "Materialisation cache misses.", field: "CacheMisses"},
	{name: "ode_delta_cache_evictions_total", help: "Materialisation cache LRU evictions.", field: "CacheEvictions"},
	{name: "ode_delta_cache_bytes", help: "Materialisation cache occupancy in bytes.", field: "CacheBytes"},
	{name: "ode_delta_cache_entries", help: "Materialisation cache entry count.", field: "CacheEntries"},
	{name: "ode_derefcache_hits_total", help: "Dereference cache hits (latest-version reads served without page decoding).", field: "DerefCacheHits"},
	{name: "ode_derefcache_misses_total", help: "Dereference cache misses.", field: "DerefCacheMisses"},
	{name: "ode_derefcache_evictions_total", help: "Dereference cache LRU evictions.", field: "DerefCacheEvictions"},
	{name: "ode_derefcache_bytes", help: "Dereference cache occupancy in bytes.", field: "DerefCacheBytes"},
	{name: "ode_derefcache_entries", help: "Dereference cache entry count.", field: "DerefCacheEntries"},

	// Routing / reshard progress. Epoch 0 is the static map a database
	// starts with; every committed range flip bumps it.
	{name: "ode_routing_epoch", help: "Shard-map epoch (bumped by every committed routing change).",
		gauge: func(db *DB) int64 { return int64(db.coord.Map().Epoch()) }},
	{name: "ode_shards_logical", help: "Logical shard count (new allocations spread over these).",
		gauge: func(db *DB) int64 { return int64(db.coord.N()) }},
	{name: "ode_shards_physical", help: "Physical shard files on disk (never shrinks).",
		gauge: func(db *DB) int64 { return int64(db.coord.NumShards()) }},
	{name: "ode_reshard_active", help: "1 while a Reshard is running, else 0.",
		gauge: func(db *DB) int64 {
			if db.ReshardProgress().Active {
				return 1
			}
			return 0
		}},
	{name: "ode_reshard_target", help: "Target logical shard count of the current/last Reshard.",
		gauge: func(db *DB) int64 { return int64(db.ReshardProgress().Target) }},
	{name: "ode_reshard_chunks_total", help: "Chunk transactions committed by the current/last Reshard.",
		gauge: func(db *DB) int64 { return int64(db.ReshardProgress().Chunks) }},
	{name: "ode_reshard_objects_total", help: "Objects migrated by the current/last Reshard.",
		gauge: func(db *DB) int64 { return int64(db.ReshardProgress().Objects) }},
	{name: "ode_reshard_versions_total", help: "Version records migrated by the current/last Reshard.",
		gauge: func(db *DB) int64 { return int64(db.ReshardProgress().Versions) }},
}

// shardSeries is one family labeled shard="<i>": the per-shard breakdown
// of a shard-local fact, one sample per physical shard (a merged-away
// shard still serves the ranges it kept), at every shard count. The
// unlabeled families stay the cross-shard aggregates, so a dashboard
// built on them does not care how many shards there are. value returns a
// uint64 (a counter), an int64 (a gauge) or a HistSnapshot.
type shardSeries struct {
	name, help string
	value      func(db *DB, i int, sm *txn.Manager) any
}

var shardSeriesTable = []shardSeries{
	{"ode_shard_commits_total", "Committed write transactions per shard (cross-shard transactions count on every shard they touched).",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Stats().Commits }},
	{"ode_shard_aborts_total", "Rolled-back write transactions per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Stats().Aborts }},
	{"ode_shard_pool_hits_total", "Buffer-pool page hits per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Metrics().PoolHits.Load() }},
	{"ode_shard_pool_misses_total", "Buffer-pool page misses per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Metrics().PoolMisses.Load() }},
	{"ode_shard_derefcache_hits_total", "Dereference cache hits per shard.",
		func(db *DB, i int, _ *txn.Manager) any { hits, _ := db.eng.DerefCacheShardStats(i); return hits }},
	{"ode_shard_derefcache_misses_total", "Dereference cache misses per shard.",
		func(db *DB, i int, _ *txn.Manager) any { _, misses := db.eng.DerefCacheShardStats(i); return misses }},
	{"ode_shard_alloc_leases_total", "Id-allocator leases taken per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Metrics().AllocLeases.Load() }},
	{"ode_shard_alloc_ids_total", "Ids handed out from allocator leases per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Metrics().AllocIDs.Load() }},
	{"ode_shard_wal_bytes", "Current WAL size in bytes per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Stats().WALBytes }},
	{"ode_shard_wal_fsync_latency_ns", "WAL fsync latency per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Metrics().WALFsyncLatency.Snapshot() }},
	{"ode_shard_commit_batch_size", "Transactions covered by one group-commit fsync per shard.",
		func(_ *DB, _ int, sm *txn.Manager) any { return sm.Metrics().BatchSize.Snapshot() }},
}
