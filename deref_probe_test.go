package ode

import (
	"fmt"
	"testing"
)

// A latest-version read probes the dereference cache exactly once, at
// the routing layer: a cold Deref is one miss, the same Deref in a later
// View one hit, and after a commit to the object the next Deref one miss
// again. Inside one View, a hit followed by reads that build the shard
// bundle sees the vid the cache served.
func TestDerefProbeCountsOnce(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, o := hotpathDB(t, shards)
			deref := func() VID {
				t.Helper()
				var v VID
				if err := db.View(func(tx *Tx) error {
					var err error
					_, v, err = tx.ReadLatestRaw(o)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return v
			}
			step := func(name string, fn func(), hits, misses uint64) {
				t.Helper()
				before := db.Stats()
				fn()
				after := db.Stats()
				if h, m := after.DerefCacheHits-before.DerefCacheHits, after.DerefCacheMisses-before.DerefCacheMisses; h != hits || m != misses {
					t.Fatalf("%s: +%d hits +%d misses, want +%d +%d", name, h, m, hits, misses)
				}
			}
			step("cold deref", func() { deref() }, 0, 1)
			step("warm deref", func() { deref() }, 1, 0)
			var nv VID
			step("deref after a commit", func() {
				if err := db.Update(func(tx *Tx) error {
					var err error
					nv, err = tx.NewVersion(o)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if v := deref(); v != nv {
					t.Fatalf("deref after NewVersion: %v, want %v", v, nv)
				}
			}, 0, 1)
			step("hit, then reads that build the bundle", func() {
				if err := db.View(func(tx *Tx) error {
					_, cached, err := tx.ReadLatestRaw(o)
					if err != nil {
						return err
					}
					latest, err := tx.Latest(o)
					if err != nil {
						return err
					}
					n, err := tx.VersionCount(o)
					if err != nil {
						return err
					}
					if cached != nv || latest != nv || n != 2 {
						return fmt.Errorf("cache served %v; the bundle reads latest %v, %d versions", cached, latest, n)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}, 1, 0)
		})
	}
}
