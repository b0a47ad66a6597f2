package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"ode"
	"ode/internal/core"
)

// counters is everything the traced run reads before and after its
// timed phase; the cells are differences of two readings.
type counters struct {
	db                    ode.Metrics
	reads                 int64
	walWrites, walBytes   int64
	dataWrites, dataBytes int64
	syncs                 int64
	mallocs, allocBytes   uint64
	gcCPU, totalCPU       float64 // seconds
}

func readCounters(s *store) *counters {
	c := &counters{db: s.db.Metrics()}
	if d := s.counts; d != nil {
		c.reads = d.reads.Load()
		c.walWrites, c.walBytes = d.walWrites.Load(), d.walBytes.Load()
		c.dataWrites, c.dataBytes = d.dataWrites.Load(), d.dataBytes.Load()
		c.syncs = d.syncs.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	c.gcCPU, c.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	return c
}

// peakSampler polls the copy-on-write snapshot pages the pools retain
// for pinned readers; the gauge has no high-water mark of its own.
type peakSampler struct {
	quit chan struct{}
	done sync.WaitGroup
	peak int64
}

func samplePeak(db *ode.DB) *peakSampler {
	p := &peakSampler{quit: make(chan struct{})}
	shards := db.Engine().Coordinator().Shards()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			var pages int64
			for _, m := range shards {
				pages += m.Metrics().SnapshotPages.Load()
			}
			p.peak = max(p.peak, pages)
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *peakSampler) stop() int64 {
	close(p.quit)
	p.done.Wait()
	return p.peak
}

// spanCells reports the median time of each kind of span of the traced
// pass. View and Update report self time: what the engine spends
// around the closure — beginning and ending a read, or waiting for the
// writer lock, staging and publishing a commit.
func spanCells(res *result, p *pass) {
	total, self := spanTimes(p.recs)
	us := func(name string, xs []int64) {
		res.put(name, "us", percentile(xs, 0.50)/1e3, len(xs))
	}
	us("ode.view_self_us", self[spanView])
	us("ode.update_self_us", self[spanUpdate])
	us("ode.deref_us", total[spanDeref])
	us("ode.vderef_us", total[spanVDeref])
	us("ode.history_us", total[spanHistory])
	us("ode.asof_us", total[spanAsOf])
	us("ode.newversion_us", total[spanNewVersion])
	us("ode.set_us", total[spanSet])
}

// counterCells reports the counter differences across the traced timed
// phase, each divided by the work it is a cost of.
func counterCells(res *result, s *store, p *pass, payload core.PayloadStats) {
	a, b := p.before, p.after
	ops := float64(p.opsDone())
	wall := p.wall.Seconds()
	d := func(after, before uint64) float64 { return float64(after - before) }

	// What the streams wrote: versions, and the Updates that touched
	// two shards.
	var versions, updates, cross float64
	shardOf := s.db.Engine().Coordinator().Map().ShardOf
	for _, stream := range p.ops {
		versions += float64(versionsWritten(stream))
		for _, o := range stream {
			if o.kind.isWrite() {
				updates++
			}
			if o.kind == opWrite2 && shardOf(uint64(s.ptrs[o.obj].OID())) != shardOf(uint64(s.ptrs[o.obj2].OID())) {
				cross++
			}
		}
	}
	userBytes := versions * float64(s.w.size)
	commits := d(b.db.Commits, a.db.Commits)

	hits, misses := d(b.db.DerefCacheHits, a.db.DerefCacheHits), d(b.db.DerefCacheMisses, a.db.DerefCacheMisses)
	res.put("derefcache.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	res.put("derefcache.evictions_per_kop", "1/kop", 1e3*d(b.db.DerefCacheEvictions, a.db.DerefCacheEvictions)/ops, int(ops))
	hits, misses = d(b.db.CacheHits, a.db.CacheHits), d(b.db.CacheMisses, a.db.CacheMisses)
	res.put("matcache.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))

	hits, misses = d(b.db.PoolHits, a.db.PoolHits), d(b.db.PoolMisses, a.db.PoolMisses)
	res.put("storage.pool_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	res.put("storage.pool_misses_per_op", "1/op", misses/ops, int(ops))
	res.put("storage.pool_evictions_per_op", "1/op", d(b.db.PoolEvictions, a.db.PoolEvictions)/ops, int(ops))
	res.put("storage.snapshot_pages_peak", "pages", float64(p.snapshotPeak), 1)

	res.put("faultfs.reads_per_op", "1/op", float64(b.reads-a.reads)/ops, int(ops))
	res.put("faultfs.wal_bytes_per_user_byte", "ratio", ratio(float64(b.walBytes-a.walBytes), userBytes), int(versions))
	res.put("faultfs.data_bytes_per_user_byte", "ratio", ratio(float64(b.dataBytes-a.dataBytes), userBytes), int(versions))
	res.put("faultfs.write_calls_per_commit", "1/commit", ratio(float64(b.walWrites-a.walWrites+b.dataWrites-a.dataWrites), commits), int(commits))
	res.put("faultfs.syncs_per_commit", "1/commit", ratio(float64(b.syncs-a.syncs), commits), int(commits))

	res.put("txn.cross_shard_share", "ratio", ratio(cross, updates), int(updates))
	res.put("txn.aborts_per_kop", "1/kop", 1e3*d(b.db.Aborts, a.db.Aborts)/ops, int(ops))
	checkpoints := d(b.db.Checkpoints, a.db.Checkpoints)
	res.put("txn.checkpoints_per_kop", "1/kop", 1e3*checkpoints/ops, int(ops))
	res.put("txn.checkpoint_busy_share", "ratio", d(b.db.CheckpointDuration.Sum, a.db.CheckpointDuration.Sum)/1e9/wall, int(checkpoints))
	batches := d(b.db.Batches, a.db.Batches)
	res.put("txn.commits_per_batch", "1/batch", ratio(commits, batches), int(batches))

	leases := d(b.db.AllocLeases, a.db.AllocLeases)
	res.put("core.ids_per_lease", "1/lease", ratio(d(b.db.AllocIDs, a.db.AllocIDs), leases), int(leases))
	walks := d(b.db.DprevWalkLen.Count, a.db.DprevWalkLen.Count)
	res.put("core.dprev_walk_mean", "versions", ratio(d(b.db.DprevWalkLen.Sum, a.db.DprevWalkLen.Sum), walks), int(walks))
	res.put("core.demotions_per_kop", "1/kop", 1e3*d(b.db.DeltaDemotions, a.db.DeltaDemotions)/ops, int(ops))
	sweeps := d(b.db.CompactDuration.Count, a.db.CompactDuration.Count)
	res.put("core.compact_busy_share", "ratio", d(b.db.CompactDuration.Sum, a.db.CompactDuration.Sum)/1e9/wall, int(sweeps))

	chains := d(b.db.DeltaChainLen.Count, a.db.DeltaChainLen.Count)
	res.put("delta.chain_len_mean", "links", ratio(d(b.db.DeltaChainLen.Sum, a.db.DeltaChainLen.Sum), chains), int(chains))
	res.put("delta.bytes_saved_share", "ratio", 1-ratio(float64(payload.HeapBytes()), float64(payload.LogicalBytes)), payload.Full+payload.Delta+payload.Same)

	res.put("runtime.allocs_per_op", "1/op", d(b.mallocs, a.mallocs)/ops, int(ops))
	res.put("runtime.alloc_bytes_per_op", "B/op", d(b.allocBytes, a.allocBytes)/ops, int(ops))
	res.put("runtime.gc_cpu_share", "ratio", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), 1)
}
