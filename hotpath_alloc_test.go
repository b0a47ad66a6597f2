package ode

import (
	"fmt"
	"testing"
)

// Allocation-regression gate for the two hot paths (run by `make
// hotpath`, part of `make check`).
//
// Measured history on the reference configuration below (256-byte
// payloads; Shards: 1 unless a row says otherwise):
//
//	commit (Update + UpdateLatestRaw): 92 allocs/op before the
//	  zero-copy staging refactor, 50 after (WAL frames staged in place,
//	  pooled Frames, batched id leases, btree arena decode + node
//	  cache, append-style encoders), 42 with the B+tree searching and
//	  editing nodes in place on the page (no decoded node, no
//	  re-encode; E19).
//	commit, one write path (PR 14): Shards: 4 — never gated before —
//	  51 → 44,
//	  now that the coordinator's commits stage into the same pooled,
//	  pre-grown Frames; Shards: 1 42 → 44, the price of a one-shard
//	  database taking the coordinator's path like any other shard count
//	  (a WriteTx with per-shard slices instead of a delegated closure).
//	hot deref (View + ReadLatestRaw, same object): 29 before, 19 with
//	  the dereference cache serving the read; 19 still with the in-place
//	  B+tree — a cache hit never opens a tree.
//	hot deref, one shared read snapshot (E20): Shards: 4 — never gated
//	  before, and what the benchmark runs — 22 → 7, Shards: 1 19 → 7: a
//	  View takes a reference on the coordinator's cut (a ReadTx and its
//	  views, 2) where it pinned, fetched and decoded per shard, and the
//	  shard bundle is one allocation where it was a heap, a heap state
//	  with its map, seven trees and an index map. The same bundle took
//	  the commit path from 44 to 35 at both shard counts.
//	commit, writer-led group commit: 37 at both shard counts before it
//	  (the batch's fsync ran on a goroutine of its own, one closure per
//	  flight), 36 with the waiting writer running it — ceiling 47 → 46.
//	hot deref, probed at the routing Tx: 7 → 4 at both shard counts, no
//	  bundle on a hit — the cache is probed with the shard's epoch in the
//	  cut, so a hit makes no view, no shard bundle and no bundle slice;
//	  ceiling 10 → 6.
//
// The ceilings pin those wins: the commit ceiling (46, at both shard
// counts) keeps the in-place tree's saving on top of the ≥40% reduction
// from the 92-alloc baseline, the deref ceiling (6, at both shard
// counts) keeps the cache on the hot path and the shards off it. They
// include a few allocs of headroom over the measured values so unrelated
// runtime/toolchain noise doesn't flake the gate; a real regression (an
// extra copy chain, a cache bypass or a per-shard pin) costs far more
// than that.
const (
	maxCommitAllocs = 46
	maxDerefAllocs  = 6
)

// rawCodec stores byte slices verbatim so the gate counts engine
// allocations, not serialisation overhead.
type rawCodec struct{}

func (rawCodec) Marshal(b *[]byte) ([]byte, error) { return *b, nil }
func (rawCodec) Unmarshal(b []byte) (*[]byte, error) {
	c := append([]byte(nil), b...)
	return &c, nil
}

// hotpathDB opens the reference configuration and returns a blob handle
// with one committed object to update and read.
func hotpathDB(t testing.TB, shards int) (*DB, *Type[[]byte], OID) {
	t.Helper()
	db, err := Open(t.TempDir(), &Options{Shards: shards, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	var o OID
	if err := db.Update(func(tx *Tx) error {
		p, err := blobs.Create(tx, &payload)
		if err != nil {
			return err
		}
		o = p.OID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, blobs, o
}

func TestCommitPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	// Shards: 4 is what production and every BENCHMARK.json workload
	// run; Shards: 1 is the same path with one of everything.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, o := hotpathDB(t, shards)
			payload := make([]byte, 256)
			avg := testing.AllocsPerRun(100, func() {
				if err := db.Update(func(tx *Tx) error {
					_, err := tx.UpdateLatestRaw(o, payload)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("commit path: %.1f allocs/op (ceiling %d)", avg, maxCommitAllocs)
			if avg > maxCommitAllocs {
				t.Errorf("commit path regressed to %.1f allocs/op, ceiling %d", avg, maxCommitAllocs)
			}
		})
	}
}

func TestHotDerefAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, o := hotpathDB(t, shards)
			// Warm the dereference cache so the measured runs are the hot path.
			if err := db.View(func(tx *Tx) error {
				_, _, err := tx.ReadLatestRaw(o)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(200, func() {
				if err := db.View(func(tx *Tx) error {
					content, _, err := tx.ReadLatestRaw(o)
					if err != nil {
						return err
					}
					if len(content) != 256 {
						return fmt.Errorf("short read: %d bytes", len(content))
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("hot deref path: %.1f allocs/op (ceiling %d)", avg, maxDerefAllocs)
			if avg > maxDerefAllocs {
				t.Errorf("hot deref path regressed to %.1f allocs/op, ceiling %d", avg, maxDerefAllocs)
			}
			st := db.Stats()
			if st.DerefCacheHits == 0 {
				t.Error("dereference cache recorded no hits on the hot read path")
			}
		})
	}
}

func BenchmarkCommitPath(b *testing.B) {
	db, _, o := hotpathDB(b, 1)
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := tx.UpdateLatestRaw(o, payload)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotDeref(b *testing.B) {
	db, _, o := hotpathDB(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.View(func(tx *Tx) error {
			_, _, err := tx.ReadLatestRaw(o)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
