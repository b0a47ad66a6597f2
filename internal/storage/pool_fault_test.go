package storage

// Buffer-pool behaviour under injected read faults: a page-in that
// fails with EIO must surface the error, must NOT leave a poisoned
// (empty or partial) page in the cache, must keep the hit/miss/eviction
// counters and residency bookkeeping consistent, and must succeed on
// retry once the fault clears.

import (
	"errors"
	"fmt"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
)

// buildFaultStore creates a store with nRecs one-record pages on mem,
// flushes it, and returns the RIDs. The store is closed.
func buildFaultStore(t *testing.T, mem *faultfs.Mem, nRecs int) []oid.RID {
	t.Helper()
	st, err := Create("/pool.db", Options{PageSize: 512, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeap(st.OpenWriter(nil), nil)
	rids := make([]oid.RID, nRecs)
	for i := range rids {
		// 400-byte payloads: one record per 512-byte page.
		data := make([]byte, 400)
		copy(data, fmt.Sprintf("record-%d", i))
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return rids
}

// openReads counts the reads a plain Open performs, so tests can aim
// read faults at post-open page-ins.
func openReads(t *testing.T, mem *faultfs.Mem) uint64 {
	t.Helper()
	inj := faultfs.NewInjector(mem.Clone(), faultfs.Plan{})
	st, err := Open("/pool.db", Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	st.CloseNoFlush()
	return inj.Counts().Reads
}

func TestPoolReadFaultDoesNotPoisonCache(t *testing.T) {
	mem := faultfs.NewMem()
	rids := buildFaultStore(t, mem, 4)
	base := openReads(t, mem)

	// Fail the first post-open page-in.
	inj := faultfs.NewInjector(mem, faultfs.Plan{FailReadN: base + 1})
	st, err := Open("/pool.db", Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseNoFlush()
	pl := st.Pool()

	h0, m0, e0 := poolCounts(pl)
	res0, dirty0 := pl.Resident()

	target := rids[2].Page
	if _, err := pl.Get(target); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("faulted page-in: got err %v, want ErrInjected", err)
	}

	// The failed read must count as a miss, nothing else.
	h1, m1, e1 := poolCounts(pl)
	if h1 != h0 || m1 != m0+1 || e1 != e0 {
		t.Fatalf("stats after fault: hits %d→%d misses %d→%d evict %d→%d",
			h0, h1, m0, m1, e0, e1)
	}
	// No phantom resident page.
	if res1, dirty1 := pl.Resident(); res1 != res0 || dirty1 != dirty0 {
		t.Fatalf("residency after fault: %d/%d → %d/%d", res0, dirty0, res1, dirty1)
	}

	// The fault was transient (it fires exactly once): the retry must
	// page in the true, checksum-verified image.
	p, err := pl.Get(target)
	if err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if p.ID != target {
		t.Fatalf("retry returned page %d, want %d", p.ID, target)
	}
	h2, m2, _ := poolCounts(pl)
	if h2 != h1 || m2 != m1+1 {
		t.Fatalf("retry stats: hits %d→%d misses %d→%d", h1, h2, m1, m2)
	}
	if res2, _ := pl.Resident(); res2 != res0+1 {
		t.Fatalf("retry residency: %d, want %d", res2, res0+1)
	}
	// And the record on it is intact.
	hp := NewHeap(st.OpenWriter(nil), nil)
	data, err := hp.Read(rids[2])
	if err != nil || string(data[:len("record-2")]) != "record-2" {
		t.Fatalf("record after retry: %q, %v", data, err)
	}
	// Now cached: another Get is a pure hit.
	if _, err := pl.Get(target); err != nil {
		t.Fatal(err)
	}
	h3, m3, _ := poolCounts(pl)
	if h3 <= h2 || m3 != m2 {
		t.Fatalf("hit stats: hits %d→%d misses %d→%d", h2, h3, m2, m3)
	}
}

// TestPoolReadFaultSweep aims an EIO at every read a scan workload
// performs; whatever happens, a fault-free rescan must then see every
// record, and the cache bookkeeping must stay coherent.
func TestPoolReadFaultSweep(t *testing.T) {
	mem := faultfs.NewMem()
	rids := buildFaultStore(t, mem, 6)

	// Count the reads of a full fault-free scan from a cold open.
	probe := faultfs.NewInjector(mem.Clone(), faultfs.Plan{})
	st0, err := Open("/pool.db", Options{FS: probe, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	h0 := NewHeap(st0.OpenWriter(nil), nil)
	for _, rid := range rids {
		if _, err := h0.Read(rid); err != nil {
			t.Fatal(err)
		}
	}
	st0.CloseNoFlush()
	total := probe.Counts().Reads

	for n := uint64(1); n <= total; n++ {
		inj := faultfs.NewInjector(mem.Clone(), faultfs.Plan{FailReadN: n})
		st, err := Open("/pool.db", Options{FS: inj, PoolPages: 8})
		if err != nil {
			continue // fault hit the open path; that is its own trial
		}
		h := NewHeap(st.OpenWriter(nil), nil)
		for _, rid := range rids {
			if _, err := h.Read(rid); err != nil && !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("failRead=%d: unexpected error class: %v", n, err)
			}
		}
		// Fault cleared: a rescan must see every record intact.
		for i, rid := range rids {
			data, err := h.Read(rid)
			if err != nil {
				t.Fatalf("failRead=%d: rescan rid %d: %v", n, i, err)
			}
			if want := fmt.Sprintf("record-%d", i); string(data[:len(want)]) != want {
				t.Fatalf("failRead=%d: rescan rid %d corrupt: %q", n, i, data)
			}
		}
		if res, dirty := st.Pool().Resident(); res == 0 || dirty != 0 {
			t.Fatalf("failRead=%d: residency %d/%d after clean rescan", n, res, dirty)
		}
		st.CloseNoFlush()
	}
	t.Logf("pool read-fault sweep: %d read injection points", total)
}

// poolCounts reads the pool's hit, miss and eviction counters out of the
// registry it counts in.
func poolCounts(pl *Pool) (hits, misses, evictions uint64) {
	m := pl.Metrics()
	return m.PoolHits.Load(), m.PoolMisses.Load(), m.PoolEvictions.Load()
}

// TestPoolCountsInItsOwnRegistry: a pool nobody handed a registry has
// one, and moving it onto its shard's carries the dirty-page gauge over
// and leaves the counts behind.
func TestPoolCountsInItsOwnRegistry(t *testing.T) {
	f, err := OpenFile(faultfs.NewMem(), "/own.ode", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pl := NewPool(f, 8)
	pl.Install(1, make([]byte, 4096))
	if _, err := pl.Get(1); err != nil {
		t.Fatal(err)
	}
	own := pl.Metrics()
	if h, d := own.PoolHits.Load(), own.DirtyPages.Load(); h != 1 || d != 1 {
		t.Fatalf("own registry: %d hits, %d dirty pages, want 1 and 1", h, d)
	}
	shard := obs.New()
	pl.SetMetrics(shard)
	if _, err := pl.Get(1); err != nil {
		t.Fatal(err)
	}
	if h, d := shard.PoolHits.Load(), shard.DirtyPages.Load(); h != 1 || d != 1 {
		t.Fatalf("shard registry: %d hits, %d dirty pages, want 1 and 1", h, d)
	}
	if h := own.PoolHits.Load(); h != 1 {
		t.Fatalf("the registry the pool left counted on: %d hits", h)
	}
}
