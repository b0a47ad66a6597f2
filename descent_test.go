package ode

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ode/internal/btree"
)

// How often one write reaches the B+trees (DESIGN.md §15.6). A write
// bundle memoises the object headers and version records it has
// decoded or stored, so a transaction descends the trees once per
// record it touches, and a bulk load, which writes every record before
// it reads it back, barely reads at all. Before the memo, on the shapes
// below:
//
//	Update{Deref, NewVersion, Set}, FullCopy:  9 reads + 6 writes
//	Update{Deref, NewVersion, Set}, DeltaTier: 19 reads + 7 writes
//	bulk load, reads per version:              5.5 FullCopy, 10 DeltaTier
const (
	maxDescentsFullCopy = 9
	maxDescentsTier     = 14
	maxBulkReads        = 1.0
)

// descentObjects and descentBatch are the preload: objects, each a
// Create and three NewVersion+Set, written descentBatch to an Update —
// the benchmark's preload shape.
const (
	descentObjects = 256
	descentBatch   = 128
	descentChain   = 4
)

// editPayload returns p with a 64-byte edit at a position drawn from
// salt, so that the delta tier's demotions pay off.
func editPayload(p []byte, salt uint32) []byte {
	q := append([]byte(nil), p...)
	off := 16 + int(salt)%(len(q)-16-64)
	for i := 0; i < 64; i++ {
		q[off+i] = byte(salt>>(8*(uint(i)&3))) + byte(i)
	}
	binary.BigEndian.PutUint32(q, salt)
	return q
}

// preloadChains fills db with descentObjects version chains and returns
// the handles and the descents the load made.
func preloadChains(t testing.TB, db *DB, blobs *Type[[]byte]) ([]Ptr[[]byte], *btree.Descents) {
	t.Helper()
	d := new(btree.Descents)
	stop := btree.CountDescents(d)
	defer stop()
	ptrs := make([]Ptr[[]byte], descentObjects)
	for lo := 0; lo < descentObjects; lo += descentBatch {
		if err := db.Update(func(tx *Tx) error {
			for i := lo; i < lo+descentBatch; i++ {
				payload := make([]byte, 1024)
				binary.BigEndian.PutUint64(payload[8:], uint64(i))
				p, err := blobs.Create(tx, &payload)
				if err != nil {
					return err
				}
				ptrs[i] = p
				for k := 1; k < descentChain; k++ {
					payload = editPayload(payload, uint32(i*descentChain+k))
					if _, err := p.NewVersion(tx); err != nil {
						return err
					}
					if err := p.Set(tx, &payload); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ptrs, d
}

func TestWriteDescents(t *testing.T) {
	for _, tier := range []bool{false, true} {
		t.Run(fmt.Sprintf("tier=%v", tier), func(t *testing.T) {
			db, err := Open(t.TempDir(), &Options{Shards: 4, NoSync: true, DeltaTier: tier})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
			if err != nil {
				t.Fatal(err)
			}
			ptrs, bulk := preloadChains(t, db, blobs)
			versions := float64(descentObjects * descentChain)
			bulkReads := float64(bulk.Reads.Load()) / versions
			t.Logf("bulk load: %.2f reads + %.2f writes per version", bulkReads, float64(bulk.Writes.Load())/versions)
			if bulkReads > maxBulkReads {
				t.Errorf("bulk load reads the trees %.2f times per version, bound %v", bulkReads, maxBulkReads)
			}

			// One Update{Deref, NewVersion, Set} on each of a few objects.
			const writes = 16
			var d btree.Descents
			stop := btree.CountDescents(&d)
			for i := 0; i < writes; i++ {
				p := ptrs[i*descentObjects/writes]
				if err := db.Update(func(tx *Tx) error {
					cur, err := p.Deref(tx)
					if err != nil {
						return err
					}
					next := editPayload(*cur, uint32(1000+i))
					if _, err := p.NewVersion(tx); err != nil {
						return err
					}
					return p.Set(tx, &next)
				}); err != nil {
					t.Fatal(err)
				}
			}
			stop()
			reads := float64(d.Reads.Load()) / writes
			per := float64(d.Reads.Load()+d.Writes.Load()) / writes
			t.Logf("Update{Deref, NewVersion, Set}: %.2f reads + %.2f writes", reads, per-reads)
			bound := float64(maxDescentsFullCopy)
			if tier {
				bound = maxDescentsTier
			}
			if per > bound {
				t.Errorf("a write descends the trees %.2f times, bound %v", per, bound)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkPreload times what the cold-history workload's set-up
// preloads: 8,000 objects of 1 KiB, each a Create and three
// NewVersion+Set with a 64-byte edit, reading back each version's
// reference and metadata as the workload does, 128 objects to an Update,
// on four shards without fsync. One iteration is one whole preload into
// a fresh database (`-benchtime 1x` runs it once, in about a second); it
// reports the time and the allocations per version written.
func BenchmarkPreload(b *testing.B) {
	const objects, batch = 8000, 128
	var elapsed time.Duration
	var mallocs uint64
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := Open(b.TempDir(), &Options{Shards: 4, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
		if err != nil {
			b.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		start := time.Now()
		for lo := 0; lo < objects; lo += batch {
			if err := db.Update(func(tx *Tx) error {
				for obj := lo; obj < lo+batch; obj++ {
					payload := make([]byte, 1024)
					r.Read(payload)
					p, err := blobs.Create(tx, &payload)
					if err != nil {
						return err
					}
					for k := 0; k < descentChain; k++ {
						var v VPtr[[]byte]
						if k == 0 {
							v, err = p.Pin(tx)
						} else {
							payload = editPayload(payload, r.Uint32())
							if v, err = p.NewVersion(tx); err == nil {
								err = p.Set(tx, &payload)
							}
						}
						if err != nil {
							return err
						}
						if _, err := v.Info(tx); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		elapsed += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	versions := float64(b.N * objects * descentChain)
	b.ReportMetric(float64(elapsed.Nanoseconds())/versions, "ns/version")
	b.ReportMetric(float64(mallocs)/versions, "allocs/version")
}
