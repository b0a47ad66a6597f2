package ode

// Delta storage tier (DESIGN.md §14) test battery: deterministic
// demotion/promotion behavior, the encode→demote→materialize round-trip
// property test across anchor intervals (with interior D-parent
// deletes), materialisation-cache correctness, and delta chains
// surviving a live reshard. Run by `make delta-matrix` at ODE_SHARDS=4
// under -race.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ode/internal/core"
	"ode/internal/faultfs"
	"ode/internal/oid"
)

// editBytes returns a small random mutation of prev: a few in-place
// byte flips, sometimes an append or truncation — the "small change"
// shape delta encoding exists for.
func editBytes(rng *rand.Rand, prev []byte) []byte {
	out := make([]byte, len(prev))
	copy(out, prev)
	switch rng.Intn(10) {
	case 0: // append
		extra := make([]byte, 1+rng.Intn(64))
		rng.Read(extra)
		out = append(out, extra...)
	case 1: // truncate (never to empty)
		if len(out) > 2 {
			out = out[:1+rng.Intn(len(out)-1)]
		}
	}
	for i, edits := 0, 1+rng.Intn(3); i < edits; i++ {
		if len(out) == 0 {
			break
		}
		off := rng.Intn(len(out))
		n := 1 + rng.Intn(16)
		if off+n > len(out) {
			n = len(out) - off
		}
		rng.Read(out[off : off+n])
	}
	return out
}

func payloadStats(t *testing.T, db *DB) core.PayloadStats {
	t.Helper()
	ps, err := db.Engine().PayloadStats()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// verifyAll checks every tracked version materialises bit-for-bit, from
// both a snapshot View (cache path) and an Update (live-state path).
func verifyAll(t *testing.T, db *DB, want map[VID][]byte, owner map[VID]OID) {
	t.Helper()
	check := func(tx *Tx) error {
		for v, content := range want {
			got, err := tx.ReadVersionRaw(owner[v], v)
			if err != nil {
				return fmt.Errorf("read %v: %w", v, err)
			}
			if !bytes.Equal(got, content) {
				return fmt.Errorf("version %v: got %d bytes, want %d (content differs)", v, len(got), len(content))
			}
		}
		return nil
	}
	if err := db.View(check); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(check); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaTierDemotion pins the deterministic behavior: a linear chain
// built under FullCopy demotes to deltas with anchors every
// AnchorInterval links, reclaims most of the payload heap, and a reopen
// with a smaller interval promotes anchors back in.
func TestDeltaTierDemotion(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{
		Shards: envShards(), PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 8,
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := db.Engine().RegisterType("DeltaBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	content := make([]byte, 2048)
	rng.Read(content)

	var o OID
	want := map[VID][]byte{}
	owner := map[VID]OID{}
	err = db.Update(func(tx *Tx) error {
		var v VID
		var err error
		o, v, err = tx.CreateRaw(tid, content)
		if err != nil {
			return err
		}
		want[v] = content
		owner[v] = o
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		content = editBytes(rng, content)
		err := db.Update(func(tx *Tx) error {
			v, err := tx.NewVersion(o)
			if err != nil {
				return err
			}
			if err := tx.UpdateVersionRaw(o, v, content); err != nil {
				return err
			}
			cp := make([]byte, len(content))
			copy(cp, content)
			want[v] = cp
			owner[v] = o
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	ps := payloadStats(t, db)
	if ps.Delta == 0 {
		t.Fatalf("no demotions happened: %+v", ps)
	}
	if ps.MaxDepth > 8 {
		t.Fatalf("chain depth %d exceeds anchor interval 8", ps.MaxDepth)
	}
	if ps.HeapBytes()*2 >= ps.LogicalBytes {
		t.Fatalf("expected >2x space reduction on a 41-version edit chain: heap=%d logical=%d", ps.HeapBytes(), ps.LogicalBytes)
	}
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a tighter bound: Compact must insert anchors.
	opts2 := *opts
	opts2.AnchorInterval = 2
	db, err = Open(dir, &opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Promoted == 0 {
		t.Fatalf("expected promotions when the interval shrank 8 -> 2: %+v", st)
	}
	if ps := payloadStats(t, db); ps.MaxDepth > 2 {
		t.Fatalf("chain depth %d exceeds anchor interval 2 after promotion sweep", ps.MaxDepth)
	}
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Compaction is idempotent at the fixpoint.
	st, err = db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Demoted != 0 || st.Promoted != 0 {
		t.Fatalf("second sweep was not a no-op: %+v", st)
	}
}

// TestDeltaRoundTripProperty is the satellite property test: random
// edit sequences with branching, interior D-parent deletes, in-place
// updates and interleaved compaction sweeps round-trip bit-for-bit at
// every version, across anchor intervals {1, 4, 16}, including after a
// reopen. (The name's policy=0 is Options.Policy, whose one value is
// FullCopy.)
func TestDeltaRoundTripProperty(t *testing.T) {
	for _, interval := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("policy=0/interval=%d", interval), func(t *testing.T) {
			testDeltaRoundTrip(t, interval, 64+int64(interval))
		})
	}
}

// dependentAt reports whether (o, v) is stored as a delta or has a
// D-child that is: the shape an update or delete of v must detach.
func dependentAt(tx *Tx, o OID, v VID) (bool, error) {
	children, err := tx.DChildren(o, v)
	if err != nil {
		return false, err
	}
	for _, c := range append(children, v) {
		info, err := tx.Info(o, c)
		if err != nil || info.Delta {
			return info.Delta, err
		}
	}
	return false, nil
}

func testDeltaRoundTrip(t *testing.T, interval int, seed int64) {
	dir := t.TempDir()
	opts := &Options{
		Shards: envShards(), PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: interval,
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := db.Engine().RegisterType("PropBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	want := map[VID][]byte{}  // every live version's expected content
	owner := map[VID]OID{}    // vid -> object
	perObj := map[OID][]VID{} // live vids per object, insertion order

	record := func(o OID, v VID, content []byte) {
		cp := make([]byte, len(content))
		copy(cp, content)
		want[v] = cp
		owner[v] = o
		perObj[o] = append(perObj[o], v)
	}
	// Seed three objects.
	var objs []OID
	for i := 0; i < 3; i++ {
		content := make([]byte, 256+rng.Intn(1024))
		rng.Read(content)
		err := db.Update(func(tx *Tx) error {
			o, v, err := tx.CreateRaw(tid, content)
			if err != nil {
				return err
			}
			objs = append(objs, o)
			record(o, v, content)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pickVID := func(o OID) VID {
		vs := perObj[o]
		return vs[rng.Intn(len(vs))]
	}

	// onDependent counts the updates and deletes whose target was
	// dependentAt: the ones that exercise detaching.
	onDependent := 0
	countDependent := func(tx *Tx, o OID, v VID) error {
		dep, err := dependentAt(tx, o, v)
		if dep {
			onDependent++
		}
		return err
	}
	const ops = 180
	for i := 0; i < ops; i++ {
		o := objs[rng.Intn(len(objs))]
		err := db.Update(func(tx *Tx) error {
			switch r := rng.Intn(100); {
			case r < 40: // branch from a random existing version, then edit
				base := pickVID(o)
				v, err := tx.NewVersionFrom(o, base)
				if err != nil {
					return err
				}
				content := editBytes(rng, want[base])
				if err := tx.UpdateVersionRaw(o, v, content); err != nil {
					return err
				}
				record(o, v, content)
			case r < 60: // linear newversion from latest, keep content
				latest, err := tx.Latest(o)
				if err != nil {
					return err
				}
				v, err := tx.NewVersion(o)
				if err != nil {
					return err
				}
				record(o, v, want[latest])
			case r < 75: // in-place edit of a random version
				v := pickVID(o)
				if err := countDependent(tx, o, v); err != nil {
					return err
				}
				content := editBytes(rng, want[v])
				if err := tx.UpdateVersionRaw(o, v, content); err != nil {
					return err
				}
				cp := make([]byte, len(content))
				copy(cp, content)
				want[v] = cp
			default: // delete a random (often interior D-parent) version
				if len(perObj[o]) < 3 {
					return nil // keep objects alive
				}
				idx := rng.Intn(len(perObj[o]))
				v := perObj[o][idx]
				if err := countDependent(tx, o, v); err != nil {
					return err
				}
				if err := tx.DeleteVersion(o, v); err != nil {
					return err
				}
				delete(want, v)
				delete(owner, v)
				perObj[o] = append(perObj[o][:idx], perObj[o][idx+1:]...)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%20 == 19 {
			if _, err := db.Compact(); err != nil {
				t.Fatalf("compact after op %d: %v", i, err)
			}
		}
		if i%45 == 44 {
			verifyAll(t, db, want, owner)
		}
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	ps := payloadStats(t, db)
	if ps.MaxDepth > interval {
		t.Fatalf("stored depth %d exceeds anchor interval %d", ps.MaxDepth, interval)
	}
	if ps.Delta == 0 || onDependent == 0 {
		t.Fatalf("property run vacuous: %d updates or deletes on a delta, payloads %+v", onDependent, ps)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything must survive a reopen (chains on disk, cold cache).
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaMatCache verifies old-version reads of demoted chains: a
// repeated snapshot read returns the same correct bytes, a committed edit
// of the version is what the next read sees, and a writer reads its own
// uncommitted edit, which a rollback never leaks. (The name is from the
// retired materialisation cache these reads used to go through.)
func TestDeltaMatCache(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{
		Shards: envShards(), PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.Engine().RegisterType("CacheBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	content := make([]byte, 1024)
	rng.Read(content)

	var o OID
	var vids []VID
	err = db.Update(func(tx *Tx) error {
		var v VID
		var err error
		o, v, err = tx.CreateRaw(tid, content)
		vids = append(vids, v)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	contents := map[VID][]byte{vids[0]: append([]byte(nil), content...)}
	for i := 0; i < 10; i++ {
		content = editBytes(rng, content)
		cp := append([]byte(nil), content...)
		err := db.Update(func(tx *Tx) error {
			v, err := tx.NewVersion(o)
			if err != nil {
				return err
			}
			vids = append(vids, v)
			contents[v] = cp
			return tx.UpdateVersionRaw(o, v, cp)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	read := func(v VID) []byte {
		var got []byte
		if err := db.View(func(tx *Tx) error {
			var err error
			got, err = tx.ReadVersionRaw(o, v)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	target := vids[5]
	first := read(target)
	second := read(target)
	if !bytes.Equal(first, second) || !bytes.Equal(first, contents[target]) {
		t.Fatal("repeated read returned different bytes")
	}

	// Commit an edit to the read version: the next read must see the new
	// content, not the old bytes.
	newContent := editBytes(rng, contents[target])
	if err := db.Update(func(tx *Tx) error {
		return tx.UpdateVersionRaw(o, target, newContent)
	}); err != nil {
		t.Fatal(err)
	}
	if got := read(target); !bytes.Equal(got, newContent) {
		t.Fatalf("stale content served after commit: got %d bytes, want %d", len(got), len(newContent))
	}
	// A writer must read its own uncommitted state.
	if err := db.Update(func(tx *Tx) error {
		probe := editBytes(rng, newContent)
		if err := tx.UpdateVersionRaw(o, target, probe); err != nil {
			return err
		}
		got, err := tx.ReadVersionRaw(o, target)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, probe) {
			t.Fatal("writer read did not see its own uncommitted update")
		}
		return fmt.Errorf("rollback")
	}); err == nil {
		t.Fatal("expected deliberate rollback error")
	}
	if got := read(target); !bytes.Equal(got, newContent) {
		t.Fatal("rolled-back content leaked into reads")
	}
}

// TestDeltaReshardCarriesChains moves whole objects (including demoted
// delta chains) across shards with a live Reshard and verifies every
// version still materialises.
func TestDeltaReshardCarriesChains(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{
		Shards: 2, PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.Engine().RegisterType("MoveBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	want := map[VID][]byte{}
	owner := map[VID]OID{}
	for i := 0; i < 6; i++ {
		content := make([]byte, 1024)
		rng.Read(content)
		var o OID
		err := db.Update(func(tx *Tx) error {
			var v VID
			var err error
			o, v, err = tx.CreateRaw(tid, content)
			if err != nil {
				return err
			}
			want[v] = append([]byte(nil), content...)
			owner[v] = o
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 12; j++ {
			content = editBytes(rng, content)
			cp := append([]byte(nil), content...)
			err := db.Update(func(tx *Tx) error {
				v, err := tx.NewVersion(o)
				if err != nil {
					return err
				}
				want[v] = cp
				owner[v] = o
				return tx.UpdateVersionRaw(o, v, cp)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if ps := payloadStats(t, db); ps.Delta == 0 {
		t.Fatalf("no delta chains to move: %+v", ps)
	}
	if err := db.Reshard(4); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Chains still compact and verify on their new shards.
	if err := db.Reshard(2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaCompactTierOffHistory proves the explicit sweep does the
// demotion work the write paths never saw: history built with the tier
// off demotes on the first Compact after a reopen with it on, a sweep
// reaches every physical shard a live Reshard adds and skips the ones a
// merge empties (as does PayloadStats), and every version keeps
// materialising exactly.
func TestDeltaCompactTierOffHistory(t *testing.T) {
	dir := t.TempDir()
	shards := envShards()
	if shards < 2 {
		shards = 2 // the mid-test Reshard needs the sharded layout
	}
	// Build the history with the delta tier OFF: every payload lands as
	// a full copy and no write demotes, so any delta that appears after
	// the reopen below was written by Compact.
	db, err := Open(dir, &Options{Shards: shards, PageSize: 1024, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tid, err := db.Engine().RegisterType("BgBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	want := map[VID][]byte{}
	owner := map[VID]OID{}
	var objs []OID
	latest := map[OID][]byte{}
	for i := 0; i < 3; i++ {
		content := make([]byte, 1024)
		rng.Read(content)
		err := db.Update(func(tx *Tx) error {
			o, v, err := tx.CreateRaw(tid, content)
			if err != nil {
				return err
			}
			objs = append(objs, o)
			want[v] = content
			owner[v] = o
			latest[o] = content
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	editAll := func() {
		t.Helper()
		for _, o := range objs {
			content := editBytes(rng, latest[o])
			err := db.Update(func(tx *Tx) error {
				v, err := tx.NewVersion(o)
				if err != nil {
					return err
				}
				want[v] = content
				owner[v] = o
				return tx.UpdateVersionRaw(o, v, content)
			})
			if err != nil {
				t.Fatal(err)
			}
			latest[o] = content
		}
	}
	for r := 0; r < 12; r++ {
		editAll()
	}
	if ps := payloadStats(t, db); ps.Delta+ps.Same != 0 {
		t.Fatalf("delta tier off, yet %d deltas / %d shared payloads", ps.Delta, ps.Same)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, &Options{
		Shards: shards, PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// sweep runs Compact and checks it examined every object, wherever
	// the shard map has put it.
	sweep := func(stage string) CompactStats {
		t.Helper()
		st, err := db.Compact()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if st.Objects != len(objs) {
			t.Fatalf("%s: sweep examined %d objects, want %d", stage, st.Objects, len(objs))
		}
		return st
	}
	if st := sweep("after reopen"); st.Demoted == 0 {
		t.Fatalf("Compact demoted nothing of the tier-off history: %+v", st)
	}
	if ps := payloadStats(t, db); ps.Delta == 0 || ps.MaxDepth > 4 {
		t.Fatalf("after the first sweep: %+v", ps)
	}

	// Split while the chains are deltas, edit on the new placement, and
	// sweep the added physical shards.
	if err := db.Reshard(shards * 2); err != nil {
		t.Fatal(err)
	}
	editAll()
	sweep("after the split")
	// Merge back: the merged-away physical shards must be skipped
	// cleanly by both the sweep and the stats scan.
	if err := db.Reshard(shards); err != nil {
		t.Fatal(err)
	}
	if st := sweep("after the merge"); st.Demoted+st.Promoted != 0 {
		t.Fatalf("a sweep after a sweep found work: %+v", st)
	}
	verifyAll(t, db, want, owner)
	if ps := payloadStats(t, db); ps.MaxDepth > 4 {
		t.Fatalf("chain depth %d exceeds anchor interval 4", ps.MaxDepth)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPrimitives drives the per-version demote/promote primitives
// through the routing layer (Tx.DemoteVersion / Tx.PromoteVersion, the
// odeshell surface) and pins every refusal: derivation roots, the
// latest version, already-demoted and already-full payloads, the
// anchor-interval bound, and deltas that would not actually shrink the
// payload. Contents are re-verified after every representation change.
func TestDeltaPrimitives(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{
		Shards: envShards(), PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.Engine().RegisterType("DeltaPrim")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	base := make([]byte, 512)
	rng.Read(base)
	contents := [][]byte{base}
	for i := 0; i < 3; i++ {
		contents = append(contents, editBytes(rng, contents[i]))
	}
	var o OID
	var vids []VID
	err = db.Update(func(tx *Tx) error {
		var v VID
		var err error
		o, v, err = tx.CreateRaw(tid, contents[0])
		if err != nil {
			return err
		}
		vids = append(vids, v)
		for _, c := range contents[1:] {
			v, err = tx.NewVersion(o)
			if err != nil {
				return err
			}
			if err := tx.UpdateVersionRaw(o, v, c); err != nil {
				return err
			}
			vids = append(vids, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A second object whose middle version shares nothing with its
	// parent: the delta would be bigger than the content, so demotion
	// must refuse rather than grow the heap.
	noise := make([]byte, 256)
	rng.Read(noise)
	var o2 OID
	var c2 VID
	err = db.Update(func(tx *Tx) error {
		first := make([]byte, 256)
		rng.Read(first)
		var err error
		o2, _, err = tx.CreateRaw(tid, first)
		if err != nil {
			return err
		}
		c2, err = tx.NewVersion(o2)
		if err != nil {
			return err
		}
		if err := tx.UpdateVersionRaw(o2, c2, noise); err != nil {
			return err
		}
		last, err := tx.NewVersion(o2)
		if err != nil {
			return err
		}
		return tx.UpdateVersionRaw(o2, last, editBytes(rng, noise))
	})
	if err != nil {
		t.Fatal(err)
	}

	step := func(name string, want bool, fn func(tx *core.Tx) (bool, error)) {
		t.Helper()
		err := db.Engine().Write(func(tx *core.Tx) error {
			ok, err := fn(tx)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if ok != want {
				return fmt.Errorf("%s: got %v, want %v", name, ok, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// v2 was already demoted inline when v3 gained it as a D-child
	// (the NewVersion hook), so the chain sits at v1(full) →
	// v2(delta,1) → v3(full) → v4(full,latest).
	step("demote root", false, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o, vids[0]) })
	step("demote latest", false, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o, vids[3]) })
	step("re-demote v2", false, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o, vids[1]) })
	// v3's parent sits at depth 1; one more link would exceed
	// AnchorInterval=1.
	step("demote v3 over bound", false, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o, vids[2]) })
	step("demote incompressible", false, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o2, c2) })
	step("promote v2", true, func(tx *core.Tx) (bool, error) { return tx.PromoteVersion(o, vids[1]) })
	step("re-promote v2", false, func(tx *core.Tx) (bool, error) { return tx.PromoteVersion(o, vids[1]) })
	// With v2 re-anchored at depth 0, v3 is demotable again.
	step("demote v3", true, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o, vids[2]) })
	step("re-demote v3", false, func(tx *core.Tx) (bool, error) { return tx.DemoteVersion(o, vids[2]) })

	err = db.View(func(tx *Tx) error {
		for i, v := range vids {
			got, err := tx.ReadVersionRaw(o, v)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, contents[i]) {
				return fmt.Errorf("version %d content changed across demote/promote", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPromoteShared promotes a version that shares its parent's
// bytes outright (a shared payload, which only the encode-at-write delta
// scheme wrote; deltachain_fixture_test.go): the promotion must insert a
// fresh heap record rather than updating the parent's.
func TestDeltaPromoteShared(t *testing.T) {
	db, model := openDeltaChainFixture(t, &Options{NoSync: true, DeltaTier: true, AnchorInterval: deltaChainInterval})
	// Object A's shared payload is its one version whose content is its
	// D-parent's.
	o, shared := OID(model[0].OID), VID(0)
	err := db.View(func(tx *Tx) error {
		for _, ver := range model[0].Versions {
			d, err := tx.Dprev(o, VID(ver.VID))
			if err != nil || d == 0 {
				continue
			}
			for _, p := range model[0].Versions {
				if p.VID == uint64(d) && p.Content == ver.Content {
					shared = VID(ver.VID)
				}
			}
		}
		return nil
	})
	if err != nil || shared == 0 || payloadStats(t, db).Same == 0 {
		t.Fatalf("fixture holds no shared payload (%v)", err)
	}
	err = db.Engine().Write(func(tx *core.Tx) error {
		if ok, err := tx.DemoteVersion(o, shared); err != nil || ok {
			return fmt.Errorf("demote shared: got %v, %v; want false, nil", ok, err)
		}
		ok, err := tx.PromoteVersion(o, shared)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("promote shared: got false, want true")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDeltaChainModel(t, db, model)
}

// TestDeltaCompactBudget drives CompactShard/CompactAll with a
// one-mutation budget over a history built entirely under full-copy
// storage: every sweep transaction commits at most one demotion, the
// resume cursor re-enters the same object while work remains (More) and
// steps past it when the budget ran out exactly at the boundary. A
// reopen at a smaller anchor interval then replays the same loop on the
// promotion side, exercising the budget-cut branch that leaves an
// over-deep chain readable for the next pass.
func TestDeltaCompactBudget(t *testing.T) {
	dir := t.TempDir()
	shards := envShards()
	base := &Options{Shards: shards, PageSize: 1024, NoSync: true}
	db, err := Open(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tid, err := db.Engine().RegisterType("BudgetBlob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err == nil {
		t.Fatal("Compact without Options.DeltaTier should fail")
	}
	rng := rand.New(rand.NewSource(99))
	content := make([]byte, 512)
	rng.Read(content)
	var o OID
	contents := [][]byte{}
	var vids []VID
	err = db.Update(func(tx *Tx) error {
		var v VID
		var err error
		o, v, err = tx.CreateRaw(tid, content)
		if err != nil {
			return err
		}
		vids = append(vids, v)
		contents = append(contents, content)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 19; i++ {
		content = editBytes(rng, content)
		err := db.Update(func(tx *Tx) error {
			v, err := tx.NewVersion(o)
			if err != nil {
				return err
			}
			vids = append(vids, v)
			contents = append(contents, content)
			return tx.UpdateVersionRaw(o, v, content)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	verify := func() {
		t.Helper()
		err := db.View(func(tx *Tx) error {
			for i, v := range vids {
				got, err := tx.ReadVersionRaw(o, v)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, contents[i]) {
					return fmt.Errorf("version %d content changed", i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Demotion side, one mutation per transaction.
	db, err = Open(dir, &Options{
		Shards: shards, PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A shard index past the layout is a no-op, not an error.
	if st, next, err := db.Engine().CompactShard(1000, oid.NilOID, 1); err != nil || st.Objects != 0 || next != oid.NilOID {
		t.Fatalf("out-of-range shard: stats %+v next %v err %v", st, next, err)
	}
	st, err := db.Engine().CompactAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Demoted == 0 {
		t.Fatalf("budgeted sweep demoted nothing: %+v", st)
	}
	// lim <= 0 adopts the default budget (a no-op at the fixpoint).
	if _, _, err := db.Engine().CompactShard(0, oid.NilOID, 0); err != nil {
		t.Fatal(err)
	}
	verify()
	ps := payloadStats(t, db)
	if ps.Delta == 0 || ps.MaxDepth > 8 {
		t.Fatalf("after demotion fixpoint: %+v", ps)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion side: the stored chains are now up to 8 deep; a reopen
	// at interval 2 must anchor them back, one promotion per
	// transaction, leaving the not-yet-anchored tails readable between
	// sweeps.
	db, err = Open(dir, &Options{
		Shards: shards, PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err = db.Engine().CompactAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Promoted == 0 {
		t.Fatalf("interval shrink promoted nothing: %+v", st)
	}
	// lim <= 0 adopts the default budget (fixpoint already reached).
	if _, err := db.Engine().CompactAll(0); err != nil {
		t.Fatal(err)
	}
	verify()
	if ps := payloadStats(t, db); ps.MaxDepth > 2 {
		t.Fatalf("chain depth %d exceeds shrunken anchor interval 2", ps.MaxDepth)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaInlineFixpoint is the property that the write paths demote
// every version as it goes cold: after random public-API edits under
// the delta tier, Compact finds nothing left to do. It drives 20 seeds
// of five shapes: a linear chain, branches from random versions,
// in-place updates of random versions, deletes of random versions, and
// all of these mixed. Linear and branching histories must reach the
// fixpoint exactly. An update or a delete can also make a chain
// shallower above a full version further down, which no hook retries
// (DESIGN.md §14.2), so those shapes may leave Compact a demotion; how
// many runs did is logged.
func TestDeltaInlineFixpoint(t *testing.T) {
	const seeds, edits, interval = 20, 30, 4
	shapes := []struct {
		name  string
		gated bool
		// mix weights linear, branch, update and delete steps.
		mix [4]int
	}{
		{"linear", true, [4]int{1, 0, 0, 0}},
		{"branch", true, [4]int{0, 1, 0, 0}},
		{"update", false, [4]int{1, 0, 1, 0}},
		{"delete", false, [4]int{3, 0, 0, 2}},
		{"mixed", false, [4]int{2, 2, 1, 1}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			residue := 0
			for seed := int64(1); seed <= seeds; seed++ {
				st := inlineFixpointRun(t, shape.mix, seed, edits, interval)
				if st.Demoted+st.Promoted > 0 {
					residue++
					if shape.gated {
						t.Errorf("seed %d: Compact still found work: %+v", seed, st)
					}
				}
			}
			t.Logf("%s: Compact found work after %d of %d runs", shape.name, residue, seeds)
		})
	}
}

// inlineFixpointRun makes edits random edits of one object in the given
// mix, checks every version still reads back, and returns what a
// Compact then did.
func inlineFixpointRun(t *testing.T, mix [4]int, seed int64, edits, interval int) CompactStats {
	t.Helper()
	db, err := Open("/db", &Options{
		Shards: 1, PageSize: 1024, NoSync: true, FS: faultfs.NewMem(),
		DeltaTier: true, AnchorInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.Engine().RegisterType("FixpointBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	want := map[VID][]byte{}
	owner := map[VID]OID{}
	var live []VID
	var o OID
	content := make([]byte, 512)
	rng.Read(content)
	err = db.Update(func(tx *Tx) error {
		var v VID
		var err error
		o, v, err = tx.CreateRaw(tid, content)
		want[v], owner[v], live = content, o, append(live, v)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	total := mix[0] + mix[1] + mix[2] + mix[3]
	for i := 0; i < edits; i++ {
		r := rng.Intn(total)
		err := db.Update(func(tx *Tx) error {
			switch {
			case r < mix[0]+mix[1]: // linear or branch: derive, then edit
				base, err := tx.Latest(o)
				if err != nil {
					return err
				}
				if r >= mix[0] {
					base = live[rng.Intn(len(live))]
				}
				v, err := tx.NewVersionFrom(o, base)
				if err != nil {
					return err
				}
				c := editBytes(rng, want[base])
				want[v], owner[v], live = c, o, append(live, v)
				return tx.UpdateVersionRaw(o, v, c)
			case r < mix[0]+mix[1]+mix[2]: // in-place update
				v := live[rng.Intn(len(live))]
				c := editBytes(rng, want[v])
				want[v] = c
				return tx.UpdateVersionRaw(o, v, c)
			default: // delete, keeping two versions alive
				if len(live) < 3 {
					return nil
				}
				k := rng.Intn(len(live))
				v := live[k]
				delete(want, v)
				live = append(live[:k:k], live[k+1:]...)
				return tx.DeleteVersion(o, v)
			}
		})
		if err != nil {
			t.Fatalf("seed %d edit %d: %v", seed, i, err)
		}
	}
	verifyAll(t, db, want, owner)
	st, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return st
}

// TestDeltaDeleteLatestAnchors pins that deleting the latest version
// leaves a full payload as the latest: the rebound latest, a delta deep
// in its chain, is anchored in the same transaction, and Compact then
// has nothing to promote.
func TestDeltaDeleteLatestAnchors(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{
		Shards: envShards(), PageSize: 1024, NoSync: true,
		DeltaTier: true, AnchorInterval: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.Engine().RegisterType("LatestBlob")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	want := map[VID][]byte{}
	owner := map[VID]OID{}
	content := make([]byte, 1024)
	rng.Read(content)
	var o OID
	var vids []VID
	err = db.Update(func(tx *Tx) error {
		var v VID
		var err error
		o, v, err = tx.CreateRaw(tid, content)
		want[v], owner[v], vids = content, o, append(vids, v)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		content = editBytes(rng, content)
		c := content
		err := db.Update(func(tx *Tx) error {
			v, err := tx.NewVersion(o)
			if err != nil {
				return err
			}
			want[v], owner[v], vids = c, o, append(vids, v)
			return tx.UpdateVersionRaw(o, v, c)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	delta := func(v VID) bool {
		t.Helper()
		var info VersionInfo
		err := db.View(func(tx *Tx) error {
			var err error
			info, err = tx.Info(o, v)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return info.Delta
	}
	if !delta(vids[3]) || delta(vids[4]) {
		t.Fatalf("before the delete: want v3 a delta and the latest v4 full")
	}
	err = db.Update(func(tx *Tx) error { return tx.DeleteVersion(o, vids[4]) })
	if err != nil {
		t.Fatal(err)
	}
	delete(want, vids[4])
	if delta(vids[3]) {
		t.Fatalf("the rebound latest is still a delta")
	}
	st, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Demoted+st.Promoted != 0 {
		t.Fatalf("Compact found work after the delete: %+v", st)
	}
	verifyAll(t, db, want, owner)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaTierStartsNoGoroutine pins that the delta tier runs inside
// the transactions that make versions cold: Open with DeltaTier starts
// no goroutine that Open without it does not start.
func TestDeltaTierStartsNoGoroutine(t *testing.T) {
	started := func(deltaTier bool) map[string]int {
		t.Helper()
		base := goroutineStacks()
		db, err := Open("/db", &Options{
			Shards: 2, NoSync: true, FS: faultfs.NewMem(), DeltaTier: deltaTier,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		creators := map[string]int{}
		for id, stack := range goroutineStacks() {
			if _, ok := base[id]; ok {
				continue
			}
			_, creator, _ := strings.Cut(stack, "\ncreated by ")
			creator, _, _ = strings.Cut(creator, " in goroutine")
			creators[creator]++
		}
		return creators
	}
	off, on := started(false), started(true)
	for creator, n := range on {
		if n > off[creator] {
			t.Errorf("DeltaTier starts %d goroutines created by %s, %d without it", n, creator, off[creator])
		}
	}
}

// goroutineStacks returns every goroutine's stack by goroutine id.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, stack := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " "); ok {
			stacks[id] = stack
		}
	}
	return stacks
}
