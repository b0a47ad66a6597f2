package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ode/internal/oid"
)

// scanDChildren is the reference DChildren: decode every version record
// of o and keep those derived from v. The verIdx is vid-sorted, so the
// result is in vid order.
func scanDChildren(tx *Tx, o oid.OID, v oid.VID) ([]oid.VID, error) {
	b, err := tx.shardR(tx.byO(o))
	if err != nil {
		return nil, err
	}
	var out []oid.VID
	err = b.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		rec, err := decodeVerRec(val)
		if err != nil {
			return false, err
		}
		if rec.dprev == v {
			out = append(out, oid.VID(binary.BigEndian.Uint64(k[8:16])))
		}
		return true, nil
	})
	return out, err
}

// editedContent is a 1 KiB body with a small edit that depends on n, so
// consecutive versions delta-encode well.
func editedContent(n int) []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	copy(b[(n*37)%1000:], fmt.Sprintf("edit %08d", n))
	return b
}

// dchildrenShapes counts which paths a DChildren comparison exercised.
type dchildrenShapes struct {
	walked   int // children found with v within walkLimit of the tail
	scanned  int // children found with v deeper than walkLimit
	reversed int // walked, and vid order differed from temporal order
}

// compareDChildren checks DChildren against the reference scan for
// every version of every object in objs.
func compareDChildren(t *testing.T, e *Engine, objs []oid.OID, sh *dchildrenShapes) {
	t.Helper()
	err := e.Read(func(tx *Tx) error {
		for _, o := range objs {
			if err := tx.CheckObject(o); err != nil {
				return err
			}
			temporal, err := tx.Versions(o)
			if err != nil {
				return err
			}
			for i, v := range temporal {
				got, err := tx.DChildren(o, v)
				if err != nil {
					return err
				}
				want, err := scanDChildren(tx, o, v)
				if err != nil {
					return err
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("%v: DChildren(%v) = %v, scan says %v (%d successors)",
						o, v, got, want, len(temporal)-1-i)
				}
				if len(want) == 0 {
					continue
				}
				if len(temporal)-1-i > walkLimit {
					sh.scanned++
					continue
				}
				sh.walked++
				var inTime []oid.VID
				for _, c := range temporal[i+1:] {
					if slices.Contains(want, c) {
						inTime = append(inTime, c)
					}
				}
				if !slices.Equal(inTime, want) {
					sh.reversed++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDChildrenMatchesScan drives random derivation shapes — new
// versions off the latest and off old bases, deletes in the middle and
// at the tail, in-place updates, demotions and promotions of old
// versions — through a reshard grow and merge, and compares DChildren
// with the reference scan after every transaction. After the merge, new
// vids carry a lower shard slot than the ones minted before it, so vid
// order and temporal order disagree: that pins the sort.
func TestDChildrenMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testDChildrenMatchesScan(t, shards)
		})
	}
}

func testDChildrenMatchesScan(t *testing.T, shards int) {
	e := newShardedEngine(t, shards, Options{DeltaTier: true, AnchorInterval: 4})
	ty := mustType(t, e, "Part")
	rng := rand.New(rand.NewSource(int64(shards)))
	var objs []oid.OID
	w(t, e, func(tx *Tx) error {
		for i := 0; i < 6; i++ {
			o, _, err := tx.Create(ty, editedContent(i))
			if err != nil {
				return err
			}
			objs = append(objs, o)
		}
		return nil
	})
	var sh dchildrenShapes
	edits := 100
	step := func(tx *Tx, o oid.OID) error {
		vs, err := tx.Versions(o)
		if err != nil {
			return err
		}
		anyV := vs[rng.Intn(len(vs))]
		recent := vs[max(0, len(vs)-1-rng.Intn(walkLimit+1))]
		edits++
		switch r := rng.Intn(20); {
		case r < 6:
			if _, err := tx.NewVersion(o); err != nil {
				return err
			}
			_, err = tx.UpdateLatest(o, editedContent(edits))
		case r < 9:
			_, err = tx.NewVersionFrom(o, recent)
		case r < 11:
			_, err = tx.NewVersionFrom(o, anyV)
		case r < 13:
			if len(vs) > 2 {
				err = tx.DeleteVersion(o, vs[1+rng.Intn(len(vs)-2)])
			}
		case r < 14:
			if len(vs) > 2 {
				err = tx.DeleteVersion(o, vs[len(vs)-1])
			}
		case r < 16:
			err = tx.UpdateVersion(o, anyV, editedContent(edits))
		case r < 18:
			_, err = tx.DemoteVersion(o, anyV)
		default:
			_, err = tx.PromoteVersion(o, anyV)
		}
		return err
	}
	phase := func(txs int) {
		for i := 0; i < txs; i++ {
			w(t, e, func(tx *Tx) error {
				for j := 0; j < 3; j++ {
					if err := step(tx, objs[rng.Intn(len(objs))]); err != nil {
						return err
					}
				}
				return nil
			})
			compareDChildren(t, e, objs, &sh)
		}
	}
	phase(60)
	if err := e.Reshard(2 * shards); err != nil {
		t.Fatal(err)
	}
	// Objects born on the new shards mint high-slot vids until the
	// merge folds them back.
	for s := shards; s < 2*shards; s++ {
		for i := 0; i < 3; i++ {
			o, _ := createOn(t, e, ty, s)
			objs = append(objs, o)
		}
	}
	phase(40)
	if err := e.Reshard(shards); err != nil {
		t.Fatal(err)
	}
	phase(60)
	t.Logf("compared: %d by walk, %d by scan, %d out of temporal order", sh.walked, sh.scanned, sh.reversed)
	if sh.walked == 0 || sh.scanned == 0 || sh.reversed == 0 {
		t.Fatalf("shapes not all exercised: %+v", sh)
	}
}

// TestCheckObjectRejectsChildBeforeParent forges a version record whose
// dprev comes after it on the temporal chain — the order DChildren
// relies on — and expects CheckObject to reject it.
func TestCheckObjectRejectsChildBeforeParent(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "Part")
	var o oid.OID
	var v1, v2 oid.VID
	w(t, e, func(tx *Tx) error {
		var v0 oid.VID
		var err error
		if o, v0, err = tx.Create(ty, []byte("root")); err != nil {
			return err
		}
		if v1, err = tx.NewVersionFrom(o, v0); err != nil {
			return err
		}
		v2, err = tx.NewVersionFrom(o, v0)
		return err
	})
	w(t, e, func(tx *Tx) error { return tx.CheckObject(o) })
	err := e.Write(func(tx *Tx) error {
		b, err := tx.shardW(tx.byO(o))
		if err != nil {
			return err
		}
		// v1 claims to derive from v2, its temporal successor: still a
		// tree, and with full payloads under FullCopy only the ordering
		// invariant can object.
		rec, err := b.loadVer(o, v1)
		if err != nil {
			return err
		}
		rec.dprev = v2
		if err := b.storeVer(o, v1, rec); err != nil {
			return err
		}
		return tx.CheckObject(o)
	})
	if err == nil || !strings.Contains(err.Error(), "does not precede it temporally") {
		t.Fatalf("CheckObject on %v derived from its successor %v: %v", v1, v2, err)
	}
}

// TestHotWritePagesFlatInVersions is the regression guard for the
// write path's cost in history length: one NewVersion+UpdateLatest
// under the delta tier touches about as many pages on an object with
// 2,048 versions as on one with 8. Both objects share one database, so
// the trees are equally tall for both. A D-child scan over the whole
// object crosses every one of its version-index leaves, tens of pages
// per call at 2,048 versions.
func TestHotWritePagesFlatInVersions(t *testing.T) {
	e := newShardedEngine(t, 1, Options{DeltaTier: true, AnchorInterval: 4})
	ty := mustType(t, e, "Part")
	build := func(versions int) oid.OID {
		var o oid.OID
		w(t, e, func(tx *Tx) (err error) {
			o, _, err = tx.Create(ty, editedContent(0))
			return err
		})
		for n := 1; n < versions; {
			w(t, e, func(tx *Tx) error {
				for end := min(n+128, versions); n < end; n++ {
					if _, err := tx.NewVersion(o); err != nil {
						return err
					}
					if _, err := tx.UpdateLatest(o, editedContent(n)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return o
	}
	small, big := build(8), build(2048)
	m := e.Coordinator().Shards()[0].Metrics()
	touches := func(o oid.OID, edit int) uint64 {
		var n uint64
		w(t, e, func(tx *Tx) error {
			// Inside the transaction the shard's writer lock keeps the
			// background checkpointer off the pool.
			before := m.PoolHits.Load() + m.PoolMisses.Load()
			if _, err := tx.NewVersion(o); err != nil {
				return err
			}
			if _, err := tx.UpdateLatest(o, editedContent(edit)); err != nil {
				return err
			}
			n = m.PoolHits.Load() + m.PoolMisses.Load() - before
			return nil
		})
		return n
	}
	smallPages, bigPages := touches(small, 8), touches(big, 2048)
	t.Logf("page touches for one hot write: %d at 8 versions, %d at 2048", smallPages, bigPages)
	// One btree level of slack per side: the two objects' records sit
	// in different leaves and may straddle a leaf boundary.
	if bigPages > smallPages+8 {
		t.Fatalf("hot write touches %d pages at 2048 versions against %d at 8", bigPages, smallPages)
	}
}

var dchildrenSink []oid.VID

// BenchmarkDChildren prices DChildren on the root (the scan fallback)
// and on the latest version (the walk) of a linear history.
func BenchmarkDChildren(b *testing.B) {
	for _, versions := range []int{100, 4000} {
		e := newShardedEngine(b, 1, Options{DeltaTier: true})
		ty := mustType(b, e, "Part")
		var o oid.OID
		var root oid.VID
		w(b, e, func(tx *Tx) (err error) {
			o, root, err = tx.Create(ty, editedContent(0))
			return err
		})
		for n := 1; n < versions; {
			w(b, e, func(tx *Tx) error {
				for end := min(n+500, versions); n < end; n++ {
					if _, err := tx.NewVersion(o); err != nil {
						return err
					}
				}
				return nil
			})
		}
		for _, at := range []string{"root", "latest"} {
			b.Run(fmt.Sprintf("versions=%d/%s", versions, at), func(b *testing.B) {
				err := e.Read(func(tx *Tx) error {
					v := root
					if at == "latest" {
						var err error
						if v, err = tx.Latest(o); err != nil {
							return err
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						kids, err := tx.DChildren(o, v)
						if err != nil {
							return err
						}
						dchildrenSink = kids
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
