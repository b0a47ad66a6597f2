package workload

import (
	"fmt"
	"testing"

	"ode"
)

// TestDeepChainShape is the delta tier's workload-scale acceptance net:
// the deep shape grows a 1000+ version linear chain of small edits with
// the delta tier ON, while every as-of probe, random-depth deref and
// latest read validates against the reference model — and, mid-run, a
// live split+merge reshard migrates the delta chains, with a Compact
// between the two racing the workload's writers. Afterwards the store
// must reopen, pass integrity, show real delta compression, and hold
// the anchor-interval depth bound at the compacted fixpoint.
func TestDeepChainShape(t *testing.T) {
	const interval = 8
	opsPerWorker, wantDepth := 800, 1000
	if testing.Short() {
		opsPerWorker, wantDepth = 200, 250
	}
	cfg := Config{
		Seed:         2026,
		Dir:          t.TempDir(),
		Shards:       2,
		Workers:      4,
		Objects:      2, // zipfian funnels most traffic onto one chain
		OpsPerWorker: opsPerWorker,
		Shape:        ShapeDeep,
		PayloadBytes: 192,
		ExtentEvery:  200,
		Options: &ode.Options{
			NoSync:         true,
			DeltaTier:      true,
			AnchorInterval: interval,
			MatCacheBytes:  1 << 20,
		},
	}
	cfg.Mid = func(db *ode.DB) error {
		if err := db.Reshard(4); err != nil {
			return fmt.Errorf("split 2->4: %w", err)
		}
		if _, err := db.Compact(); err != nil {
			return fmt.Errorf("compact at 4 shards: %w", err)
		}
		if err := db.Reshard(2); err != nil {
			return fmt.Errorf("merge 4->2: %w", err)
		}
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("deep run: %v", err)
	}
	if res.Mutations == 0 || res.Reads == 0 {
		t.Fatalf("degenerate run: mutations=%d reads=%d", res.Mutations, res.Reads)
	}

	// The store must stand on its own after the run: reopen, check
	// integrity, and confirm the hot chain actually went deep.
	db, err := ode.Open(cfg.Dir, &ode.Options{
		DeltaTier: true, AnchorInterval: interval,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after deep run: %v", err)
	}
	tid, err := db.Engine().RegisterType("WorkloadBlob")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	var deepest uint64
	err = db.View(func(tx *ode.Tx) error {
		return tx.Extent(tid, func(o ode.OID) (bool, error) {
			n, err := tx.VersionCount(o)
			if err != nil {
				return false, err
			}
			if n > deepest {
				deepest = n
			}
			return true, nil
		})
	})
	if err != nil {
		t.Fatalf("extent scan: %v", err)
	}
	if deepest < uint64(wantDepth) {
		t.Fatalf("hot chain only %d versions deep, want >= %d", deepest, wantDepth)
	}

	// Compact to the fixpoint: deltas must dominate a chain of small
	// edits, the depth bound must hold, and the heap must be smaller
	// than the logical payload volume.
	if _, err := db.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	ps, err := db.Engine().PayloadStats()
	if err != nil {
		t.Fatalf("payload stats: %v", err)
	}
	if ps.Delta == 0 {
		t.Fatalf("no delta payloads after a %d-deep edit chain: %+v", deepest, ps)
	}
	if ps.MaxDepth > interval {
		t.Fatalf("delta chain depth %d exceeds anchor interval %d", ps.MaxDepth, interval)
	}
	if ps.HeapBytes() >= ps.LogicalBytes {
		t.Fatalf("no space saved: heap %d >= logical %d", ps.HeapBytes(), ps.LogicalBytes)
	}
	t.Logf("deep chain: %d versions, payloads full=%d delta=%d same=%d, heap %d / logical %d bytes, max depth %d",
		deepest, ps.Full, ps.Delta, ps.Same, ps.HeapBytes(), ps.LogicalBytes, ps.MaxDepth)
}
