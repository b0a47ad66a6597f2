package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ode/internal/oid"
	"ode/internal/txn"
)

// newEngine creates an engine over a fresh temp database.
func newEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	c, err := txn.OpenCoordinator(t.TempDir(), txn.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	e, err := NewSharded(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// w runs fn in a write transaction and fails the test on error.
func w(t testing.TB, e *Engine, fn func(tx *Tx) error) {
	t.Helper()
	if err := e.Write(fn); err != nil {
		t.Fatal(err)
	}
}

func mustType(t testing.TB, e *Engine, name string) oid.TypeID {
	t.Helper()
	id, err := e.RegisterType(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestCreateReadUpdate(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "Part")
	var o oid.OID
	var v0 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("v0 content"))
		return err
	})
	if o.IsNil() || v0.IsNil() {
		t.Fatal("nil ids")
	}
	w(t, e, func(tx *Tx) error {
		content, latest, err := tx.ReadLatest(o)
		if err != nil {
			return err
		}
		if string(content) != "v0 content" || latest != v0 {
			t.Fatalf("latest: %q %v", content, latest)
		}
		// In-place update does NOT create a version (version
		// orthogonality: unversioned objects stay unversioned).
		if _, err := tx.UpdateLatest(o, []byte("edited")); err != nil {
			return err
		}
		n, err := tx.VersionCount(o)
		if err != nil {
			return err
		}
		if n != 1 {
			t.Fatalf("update created a version: count=%d", n)
		}
		content, _, err = tx.ReadLatest(o)
		if err != nil || string(content) != "edited" {
			t.Fatalf("after update: %q %v", content, err)
		}
		return nil
	})
}

func TestCreateUnregisteredTypeFails(t *testing.T) {
	e := newEngine(t, Options{})
	err := e.Write(func(tx *Tx) error {
		_, _, err := tx.Create(oid.TypeID(999), []byte("x"))
		return err
	})
	if !errors.Is(err, ErrNoType) {
		t.Fatalf("want ErrNoType, got %v", err)
	}
}

func TestRegisterTypeIdempotent(t *testing.T) {
	e := newEngine(t, Options{})
	a := mustType(t, e, "Part")
	b := mustType(t, e, "Part")
	c := mustType(t, e, "Other")
	if a != b {
		t.Fatalf("same name different ids: %v %v", a, b)
	}
	if a == c {
		t.Fatalf("different names same id")
	}
	name, ok, err := e.TypeName(a)
	if err != nil || !ok || name != "Part" {
		t.Fatalf("TypeName: %q %v %v", name, ok, err)
	}
	names, err := e.Types()
	if err != nil || len(names) != 2 {
		t.Fatalf("Types: %v %v", names, err)
	}
}

// TestGenericVsSpecificBinding reproduces the paper's core semantic
// claim (§3): an object id dynamically binds to the latest version; a
// version id statically pins one version.
func TestGenericVsSpecificBinding(t *testing.T) {
	// policy0 stores every version whole; tier runs the delta tier.
	for _, c := range []struct {
		name string
		tier bool
	}{{"policy0", false}, {"tier", true}} {
		t.Run(c.name, func(t *testing.T) {
			e := newEngine(t, Options{DeltaTier: c.tier})
			ty := mustType(t, e, "Doc")
			var o oid.OID
			var v0, v1 oid.VID
			w(t, e, func(tx *Tx) error {
				var err error
				o, v0, err = tx.Create(ty, []byte("original"))
				if err != nil {
					return err
				}
				v1, err = tx.NewVersion(o)
				if err != nil {
					return err
				}
				return tx.UpdateVersion(o, v1, []byte("revised"))
			})
			w(t, e, func(tx *Tx) error {
				// Generic reference (oid) now binds to v1.
				content, latest, err := tx.ReadLatest(o)
				if err != nil {
					return err
				}
				if latest != v1 || string(content) != "revised" {
					t.Fatalf("generic deref: %v %q", latest, content)
				}
				// Specific reference still sees the old state.
				old, err := tx.ReadVersion(o, v0)
				if err != nil {
					return err
				}
				if string(old) != "original" {
					t.Fatalf("specific deref: %q", old)
				}
				return nil
			})
		})
	}
}

func TestTemporalAndDerivedFromMaintenance(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var v0, v1, v2, v3 oid.VID
	// Reproduce the paper's §4 sequence: v1 := newversion(p);
	// v2 := newversion(v0); v3 := newversion(v1).
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("root"))
		if err != nil {
			return err
		}
		if v1, err = tx.NewVersion(o); err != nil { // from latest = v0
			return err
		}
		if v2, err = tx.NewVersionFrom(o, v0); err != nil { // alternative
			return err
		}
		if v3, err = tx.NewVersionFrom(o, v1); err != nil {
			return err
		}
		return nil
	})
	w(t, e, func(tx *Tx) error {
		// Derived-from tree: v0 → {v1, v2}; v1 → {v3}.
		check := func(v, wantD oid.VID) {
			d, err := tx.Dprev(o, v)
			if err != nil || d != wantD {
				t.Fatalf("Dprev(%v) = %v, %v; want %v", v, d, err, wantD)
			}
		}
		check(v1, v0)
		check(v2, v0)
		check(v3, v1)
		if d, _ := tx.Dprev(o, v0); !d.IsNil() {
			t.Fatalf("root Dprev = %v", d)
		}
		kids, err := tx.DChildren(o, v0)
		if err != nil || len(kids) != 2 || kids[0] != v1 || kids[1] != v2 {
			t.Fatalf("DChildren(v0) = %v, %v", kids, err)
		}
		// Temporal chain is creation order regardless of derivation:
		// v0 ·▶ v1 ·▶ v2 ·▶ v3.
		order := []oid.VID{v0, v1, v2, v3}
		for i := 1; i < len(order); i++ {
			tp, err := tx.Tprev(o, order[i])
			if err != nil || tp != order[i-1] {
				t.Fatalf("Tprev(%v) = %v, %v", order[i], tp, err)
			}
			tn, err := tx.Tnext(o, order[i-1])
			if err != nil || tn != order[i] {
				t.Fatalf("Tnext(%v) = %v, %v", order[i-1], tn, err)
			}
		}
		if tp, _ := tx.Tprev(o, v0); !tp.IsNil() {
			t.Fatal("oldest version has a Tprev")
		}
		if tn, _ := tx.Tnext(o, v3); !tn.IsNil() {
			t.Fatal("latest version has a Tnext")
		}
		// The object id binds to v3 (most recently created, even though
		// it was derived from v1, not from the previous latest v2).
		latest, err := tx.Latest(o)
		if err != nil || latest != v3 {
			t.Fatalf("latest = %v, %v", latest, err)
		}
		// Version history of v3 (paper §4.4): v3, v1, v0.
		hist, err := tx.History(o, v3)
		if err != nil || len(hist) != 3 || hist[0] != v3 || hist[1] != v1 || hist[2] != v0 {
			t.Fatalf("history = %v, %v", hist, err)
		}
		// Leaves (alternatives' tips): v2 and v3.
		leaves, err := tx.Leaves(o)
		if err != nil || len(leaves) != 2 || leaves[0] != v2 || leaves[1] != v3 {
			t.Fatalf("leaves = %v, %v", leaves, err)
		}
		// Temporal enumeration.
		vs, err := tx.Versions(o)
		if err != nil || len(vs) != 4 {
			t.Fatalf("versions = %v, %v", vs, err)
		}
		for i := range order {
			if vs[i] != order[i] {
				t.Fatalf("versions[%d] = %v want %v", i, vs[i], order[i])
			}
		}
		return nil
	})
}

func TestDeleteVersionSplices(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var v0, v1, v2, v3 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("r"))
		if err != nil {
			return err
		}
		v1, _ = tx.NewVersion(o)
		v2, _ = tx.NewVersionFrom(o, v1)
		v3, _ = tx.NewVersionFrom(o, v1)
		return nil
	})
	// Delete the middle version v1: v2 and v3 must re-parent to v0, and
	// the temporal chain v0 ·▶ v2 ·▶ v3 must close over the gap.
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, v1) })
	w(t, e, func(tx *Tx) error {
		if _, err := tx.ReadVersion(o, v1); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("deleted version readable: %v", err)
		}
		for _, v := range []oid.VID{v2, v3} {
			d, err := tx.Dprev(o, v)
			if err != nil || d != v0 {
				t.Fatalf("splice: Dprev(%v) = %v, %v", v, d, err)
			}
		}
		tp, err := tx.Tprev(o, v2)
		if err != nil || tp != v0 {
			t.Fatalf("temporal splice: Tprev(v2) = %v, %v", tp, err)
		}
		tn, err := tx.Tnext(o, v0)
		if err != nil || tn != v2 {
			t.Fatalf("temporal splice: Tnext(v0) = %v, %v", tn, err)
		}
		n, _ := tx.VersionCount(o)
		if n != 3 {
			t.Fatalf("count = %d", n)
		}
		return nil
	})
	// Deleting the latest re-binds the object id to its temporal
	// predecessor.
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, v3) })
	w(t, e, func(tx *Tx) error {
		latest, err := tx.Latest(o)
		if err != nil || latest != v2 {
			t.Fatalf("latest after delete = %v, %v", latest, err)
		}
		return nil
	})
}

func TestDeleteSoleVersionDeletesObject(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var v0 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("only"))
		return err
	})
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, v0) })
	w(t, e, func(tx *Tx) error {
		if ok, _ := tx.Exists(o); ok {
			t.Fatal("object survived deletion of its only version")
		}
		n, _ := tx.ExtentCount(ty)
		if n != 0 {
			t.Fatalf("extent count = %d", n)
		}
		return nil
	})
}

func TestDeleteObjectRemovesEverything(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	ty := mustType(t, e, "T")
	var o, other oid.OID
	w(t, e, func(tx *Tx) error {
		var err error
		o, _, err = tx.Create(ty, bytes.Repeat([]byte("x"), 1000))
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			v, err := tx.NewVersion(o)
			if err != nil {
				return err
			}
			if err := tx.UpdateVersion(o, v, bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
				return err
			}
		}
		other, _, err = tx.Create(ty, []byte("survivor"))
		return err
	})
	before := e.Stats()
	w(t, e, func(tx *Tx) error { return tx.DeleteObject(o) })
	after := e.Stats()
	if after.Objects != before.Objects-1 {
		t.Fatalf("objects %d -> %d", before.Objects, after.Objects)
	}
	if after.Versions != before.Versions-6 {
		t.Fatalf("versions %d -> %d", before.Versions, after.Versions)
	}
	w(t, e, func(tx *Tx) error {
		if ok, _ := tx.Exists(o); ok {
			t.Fatal("object still exists")
		}
		if _, err := tx.Owner(oid.VID(2)); err == nil {
			t.Fatal("vid index entry survived")
		}
		content, _, err := tx.ReadLatest(other)
		if err != nil || string(content) != "survivor" {
			t.Fatalf("unrelated object damaged: %q %v", content, err)
		}
		n, _ := tx.ExtentCount(ty)
		if n != 1 {
			t.Fatalf("extent count = %d", n)
		}
		return nil
	})
}

func TestAsOf(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var vids []oid.VID
	var stamps []oid.Stamp
	w(t, e, func(tx *Tx) error {
		var err error
		var v oid.VID
		o, v, err = tx.Create(ty, []byte("s0"))
		if err != nil {
			return err
		}
		vids = append(vids, v)
		info, _ := tx.Info(o, v)
		stamps = append(stamps, info.Stamp)
		for i := 1; i < 6; i++ {
			v, err = tx.NewVersion(o)
			if err != nil {
				return err
			}
			vids = append(vids, v)
			info, _ := tx.Info(o, v)
			stamps = append(stamps, info.Stamp)
		}
		return nil
	})
	w(t, e, func(tx *Tx) error {
		for i, s := range stamps {
			got, ok, err := tx.AsOf(o, s)
			if err != nil || !ok || got != vids[i] {
				t.Fatalf("AsOf(exact %d) = %v, %v, %v", i, got, ok, err)
			}
			walk, ok2, err2 := tx.AsOfWalk(o, s)
			if err2 != nil || !ok2 || walk != got {
				t.Fatalf("AsOfWalk disagrees at %d: %v vs %v", i, walk, got)
			}
		}
		// Before the first version: nothing.
		if _, ok, _ := tx.AsOf(o, stamps[0]-1); ok {
			t.Fatal("AsOf before creation returned a version")
		}
		// Far future: the latest.
		got, ok, _ := tx.AsOf(o, stamps[len(stamps)-1]+1000)
		if !ok || got != vids[len(vids)-1] {
			t.Fatalf("AsOf(future) = %v, %v", got, ok)
		}
		return nil
	})
}

func TestDeltaChainContentFidelity(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true, AnchorInterval: 4})
	ty := mustType(t, e, "Blob")
	rng := rand.New(rand.NewSource(42))
	var o oid.OID
	contents := map[oid.VID][]byte{}
	w(t, e, func(tx *Tx) error {
		base := make([]byte, 2048)
		rng.Read(base)
		var err error
		var v oid.VID
		o, v, err = tx.Create(ty, base)
		if err != nil {
			return err
		}
		contents[v] = append([]byte(nil), base...)
		cur := append([]byte(nil), base...)
		// A long linear chain with edits: crosses several anchors.
		for i := 0; i < 20; i++ {
			v, err = tx.NewVersion(o)
			if err != nil {
				return err
			}
			cur = append([]byte(nil), cur...)
			cur[rng.Intn(len(cur))] ^= byte(rng.Intn(255) + 1)
			if err := tx.UpdateVersion(o, v, cur); err != nil {
				return err
			}
			contents[v] = append([]byte(nil), cur...)
		}
		return nil
	})
	w(t, e, func(tx *Tx) error {
		// The shape under test: chains run the full interval, so reads
		// below cross several anchors.
		var full, deepest int
		for v := range contents {
			info, err := tx.Info(o, v)
			if err != nil {
				return err
			}
			if !info.Delta {
				full++
			}
			deepest = max(deepest, info.ChainDepth)
		}
		if full < 4 || deepest != 4 {
			t.Fatalf("%d full payloads, deepest chain %d: want several anchors and chains of 4", full, deepest)
		}
		for v, want := range contents {
			got, err := tx.ReadVersion(o, v)
			if err != nil {
				t.Fatalf("read %v: %v", v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("content drift at %v", v)
			}
			info, err := tx.Info(o, v)
			if err != nil {
				return err
			}
			if info.ChainDepth > 4 {
				t.Fatalf("chain depth %d exceeds AnchorInterval", info.ChainDepth)
			}
		}
		return nil
	})
}

// similar returns a 512-byte content that differs from every other
// similar(tag) only in the tag, so the delta tier demotes a version
// holding one against a parent holding another.
func similar(tag string) []byte {
	b := bytes.Repeat([]byte("derived-from "), 40)
	copy(b[200:], tag)
	return b
}

// linearChain creates an object and n more versions, each derived from
// the one before and holding similar(i): under the delta tier every
// version but the root and the latest is then a delta on its parent.
func linearChain(t *testing.T, e *Engine, n int) (oid.OID, []oid.VID) {
	t.Helper()
	ty := mustType(t, e, "Blob")
	var o oid.OID
	var vs []oid.VID
	w(t, e, func(tx *Tx) error {
		var v oid.VID
		var err error
		o, v, err = tx.Create(ty, similar("0"))
		vs = append(vs, v)
		for i := 1; i <= n && err == nil; i++ {
			if v, err = tx.NewVersion(o); err == nil {
				vs = append(vs, v)
				err = tx.UpdateVersion(o, v, similar(fmt.Sprint(i)))
			}
		}
		return err
	})
	return o, vs
}

// mustDependOn fails the test unless child is stored as a delta on
// parent.
func mustDependOn(t *testing.T, e *Engine, o oid.OID, child, parent oid.VID) {
	t.Helper()
	w(t, e, func(tx *Tx) error {
		info, err := tx.Info(o, child)
		if err != nil {
			return err
		}
		if !info.Delta || info.Dprev != parent {
			t.Fatalf("%v: %+v, want a delta on %v", child, info, parent)
		}
		return nil
	})
}

func TestUpdateParentDoesNotCorruptDeltaChildren(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	// v0 → v1 → v2 → v3: v1 and v2 are deltas, v2's on v1.
	o, vs := linearChain(t, e, 3)
	mustDependOn(t, e, o, vs[2], vs[1])
	// Mutating the parent must not change the child's materialised
	// content although the child is stored as a delta against it.
	w(t, e, func(tx *Tx) error {
		return tx.UpdateVersion(o, vs[1], similar("REWRITTEN"))
	})
	w(t, e, func(tx *Tx) error {
		got, err := tx.ReadVersion(o, vs[2])
		if err != nil || !bytes.Equal(got, similar("2")) {
			t.Fatalf("child corrupted: %q %v", got, err)
		}
		p, err := tx.ReadVersion(o, vs[1])
		if err != nil || !bytes.Equal(p, similar("REWRITTEN")) {
			t.Fatalf("parent: %q %v", p, err)
		}
		return tx.CheckObject(o)
	})
}

func TestDeleteDeltaBasePreservesChildren(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	o, vs := linearChain(t, e, 3)
	mustDependOn(t, e, o, vs[2], vs[1])
	// v2 is a delta against v1; deleting v1 must rewrite v2 so its
	// content survives.
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, vs[1]) })
	w(t, e, func(tx *Tx) error {
		got, err := tx.ReadVersion(o, vs[2])
		if err != nil || !bytes.Equal(got, similar("2")) {
			t.Fatalf("orphaned delta child: %v", err)
		}
		d, err := tx.Dprev(o, vs[2])
		if err != nil || d != vs[0] {
			t.Fatalf("Dprev(v2) = %v, %v", d, err)
		}
		return tx.CheckObject(o)
	})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := txn.OpenCoordinator(dir, txn.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSharded(c, Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	ty, err := e.RegisterType("Part")
	if err != nil {
		t.Fatal(err)
	}
	var o oid.OID
	var v0, v1 oid.VID
	if err := e.Write(func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("persisted-root"))
		if err != nil {
			return err
		}
		v1, err = tx.NewVersion(o)
		if err != nil {
			return err
		}
		return tx.UpdateVersion(o, v1, []byte("persisted-edit"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := txn.OpenCoordinator(dir, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	e2, err := NewSharded(c2, Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Read(func(tx *Tx) error {
		content, latest, err := tx.ReadLatest(o)
		if err != nil || latest != v1 || string(content) != "persisted-edit" {
			t.Fatalf("reopen latest: %q %v %v", content, latest, err)
		}
		old, err := tx.ReadVersion(o, v0)
		if err != nil || string(old) != "persisted-root" {
			t.Fatalf("reopen v0: %q %v", old, err)
		}
		ty2, ok, err := e2.LookupType("Part")
		if err != nil || !ok || ty2 != ty {
			t.Fatalf("catalog lost: %v %v %v", ty2, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestExtentIteration(t *testing.T) {
	e := newEngine(t, Options{})
	tyA := mustType(t, e, "A")
	tyB := mustType(t, e, "B")
	var as []oid.OID
	w(t, e, func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			o, _, err := tx.Create(tyA, []byte{byte(i)})
			if err != nil {
				return err
			}
			as = append(as, o)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := tx.Create(tyB, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	w(t, e, func(tx *Tx) error {
		var got []oid.OID
		if err := tx.Extent(tyA, func(o oid.OID) (bool, error) {
			got = append(got, o)
			return true, nil
		}); err != nil {
			return err
		}
		if len(got) != 5 {
			t.Fatalf("extent A: %v", got)
		}
		for i := range as {
			if got[i] != as[i] {
				t.Fatalf("extent order: %v vs %v", got, as)
			}
		}
		nB, _ := tx.ExtentCount(tyB)
		if nB != 3 {
			t.Fatalf("extent B count = %d", nB)
		}
		return nil
	})
}

func TestConfigurations(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "Rep")
	var schematic, vectors oid.OID
	var sV0, sV1 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		schematic, sV0, err = tx.Create(ty, []byte("schematic-v0"))
		if err != nil {
			return err
		}
		vectors, _, err = tx.Create(ty, []byte("vectors-v0"))
		if err != nil {
			return err
		}
		// Static binding pins schematic@v0; dynamic binding tracks
		// vectors' latest.
		return tx.SaveConfig("timing", []Binding{
			{Slot: "schematic", Obj: schematic, VID: sV0},
			{Slot: "vectors", Obj: vectors}, // dynamic
		})
	})
	// Evolve both objects.
	w(t, e, func(tx *Tx) error {
		var err error
		sV1, err = tx.NewVersion(schematic)
		if err != nil {
			return err
		}
		_, err = tx.NewVersion(vectors)
		return err
	})
	w(t, e, func(tx *Tx) error {
		rs, err := tx.ResolveConfig("timing")
		if err != nil {
			return err
		}
		if len(rs) != 2 {
			t.Fatalf("resolved %d bindings", len(rs))
		}
		// Sorted by slot: schematic then vectors.
		if rs[0].Slot != "schematic" || rs[0].VID != sV0 {
			t.Fatalf("static binding drifted: %+v", rs[0])
		}
		vLatest, _ := tx.Latest(vectors)
		if rs[1].Slot != "vectors" || rs[1].VID != vLatest {
			t.Fatalf("dynamic binding stale: %+v (latest %v)", rs[1], vLatest)
		}
		_ = sV1
		names, err := tx.Configs()
		if err != nil || len(names) != 1 || names[0] != "timing" {
			t.Fatalf("Configs: %v %v", names, err)
		}
		return nil
	})
	// Validation: static binding to a bogus version fails.
	err := e.Write(func(tx *Tx) error {
		return tx.SaveConfig("bad", []Binding{{Slot: "x", Obj: schematic, VID: oid.VID(9999)}})
	})
	if err == nil {
		t.Fatal("bogus static binding accepted")
	}
	w(t, e, func(tx *Tx) error { return tx.DeleteConfig("timing") })
	w(t, e, func(tx *Tx) error {
		if _, ok, _ := tx.GetConfig("timing"); ok {
			t.Fatal("config survived delete")
		}
		return nil
	})
}

func TestContexts(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "Doc")
	var o oid.OID
	var v0 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("baseline"))
		if err != nil {
			return err
		}
		if _, err := tx.NewVersion(o); err != nil {
			return err
		}
		return tx.SetContext("release-1", map[oid.OID]oid.VID{o: v0})
	})
	w(t, e, func(tx *Tx) error {
		// In the context, the generic reference resolves to the pinned
		// default; outside, to the latest.
		pinned, err := tx.ResolveInContext("release-1", o)
		if err != nil || pinned != v0 {
			t.Fatalf("context resolve: %v %v", pinned, err)
		}
		latest, _ := tx.Latest(o)
		free, err := tx.ResolveInContext("", o)
		if err != nil || free != latest {
			t.Fatalf("no-context resolve: %v %v", free, err)
		}
		// Unpinned object in a context falls back to latest.
		var o2 oid.OID
		_ = o2
		names, err := tx.Contexts()
		if err != nil || len(names) != 1 || names[0] != "release-1" {
			t.Fatalf("Contexts: %v %v", names, err)
		}
		if _, err := tx.ResolveInContext("nope", o); err == nil {
			t.Fatal("unknown context accepted")
		}
		return nil
	})
}

func TestAbortRestoresEngineConsistency(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	ty := mustType(t, e, "T")
	var o oid.OID
	w(t, e, func(tx *Tx) error {
		var err error
		o, _, err = tx.Create(ty, []byte("stable"))
		return err
	})
	boom := errors.New("boom")
	err := e.Write(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			v, err := tx.NewVersion(o)
			if err != nil {
				return err
			}
			if err := tx.UpdateVersion(o, v, bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
				return err
			}
		}
		if _, _, err := tx.Create(ty, []byte("doomed")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	w(t, e, func(tx *Tx) error {
		n, err := tx.VersionCount(o)
		if err != nil || n != 1 {
			t.Fatalf("aborted versions visible: %d %v", n, err)
		}
		content, _, err := tx.ReadLatest(o)
		if err != nil || string(content) != "stable" {
			t.Fatalf("content after abort: %q %v", content, err)
		}
		cnt, _ := tx.ExtentCount(ty)
		if cnt != 1 {
			t.Fatalf("extent after abort: %d", cnt)
		}
		// Engine fully usable after abort.
		v, err := tx.NewVersion(o)
		if err != nil {
			return err
		}
		return tx.UpdateVersion(o, v, []byte("post-abort"))
	})
}

func TestOwnerReverseIndex(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var v0, v1 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("x"))
		if err != nil {
			return err
		}
		v1, err = tx.NewVersion(o)
		return err
	})
	w(t, e, func(tx *Tx) error {
		for _, v := range []oid.VID{v0, v1} {
			owner, err := tx.Owner(v)
			if err != nil || owner != o {
				t.Fatalf("Owner(%v) = %v, %v", v, owner, err)
			}
		}
		if _, err := tx.Owner(oid.VID(424242)); !errors.Is(err, ErrNoVersion) {
			t.Fatalf("phantom owner: %v", err)
		}
		return nil
	})
}

func TestLargeConfigSpillsToHeap(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "C")
	var bindings []Binding
	w(t, e, func(tx *Tx) error {
		for i := 0; i < 200; i++ {
			o, _, err := tx.Create(ty, []byte{byte(i)})
			if err != nil {
				return err
			}
			bindings = append(bindings, Binding{
				Slot: fmt.Sprintf("component-%03d-with-a-long-slot-name", i),
				Obj:  o,
			})
		}
		return tx.SaveConfig("big", bindings)
	})
	w(t, e, func(tx *Tx) error {
		got, ok, err := tx.GetConfig("big")
		if err != nil || !ok || len(got) != 200 {
			t.Fatalf("big config roundtrip: %d %v %v", len(got), ok, err)
		}
		rs, err := tx.ResolveConfig("big")
		if err != nil || len(rs) != 200 {
			t.Fatalf("resolve: %d %v", len(rs), err)
		}
		return nil
	})
	// Replacing a spilled config must not leak its heap record: replace
	// it many times and ensure the store does not balloon.
	var before uint64
	w(t, e, func(tx *Tx) error {
		before = e.Coordinator().Shards()[0].Store().NumPages()
		return nil
	})
	for i := 0; i < 20; i++ {
		w(t, e, func(tx *Tx) error { return tx.SaveConfig("big", bindings) })
	}
	w(t, e, func(tx *Tx) error {
		if after := e.Coordinator().Shards()[0].Store().NumPages(); after > before+4 {
			t.Fatalf("spilled config leaked pages: %d -> %d", before, after)
		}
		return tx.DeleteConfig("big")
	})
	w(t, e, func(tx *Tx) error {
		if _, ok, _ := tx.GetConfig("big"); ok {
			t.Fatal("config survived delete")
		}
		return nil
	})
}

func TestLargeContextSpillsToHeap(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "C")
	defaults := map[oid.OID]oid.VID{}
	w(t, e, func(tx *Tx) error {
		for i := 0; i < 500; i++ {
			o, v, err := tx.Create(ty, []byte{byte(i)})
			if err != nil {
				return err
			}
			defaults[o] = v
		}
		return tx.SetContext("bigctx", defaults)
	})
	w(t, e, func(tx *Tx) error {
		got, ok, err := tx.GetContext("bigctx")
		if err != nil || !ok || len(got) != 500 {
			t.Fatalf("big context roundtrip: %d %v %v", len(got), ok, err)
		}
		return tx.DeleteContext("bigctx")
	})
}

func TestDeleteRootCreatesForest(t *testing.T) {
	// Deleting a root version with several children leaves a forest of
	// derivation trees; all traversals and invariants must still hold.
	e := newEngine(t, Options{})
	ty := mustType(t, e, "T")
	var o oid.OID
	var v0, v1, v2 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, []byte("root"))
		if err != nil {
			return err
		}
		v1, _ = tx.NewVersionFrom(o, v0)
		v2, _ = tx.NewVersionFrom(o, v0)
		return nil
	})
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, v0) })
	w(t, e, func(tx *Tx) error {
		// Both children become roots.
		for _, v := range []oid.VID{v1, v2} {
			d, err := tx.Dprev(o, v)
			if err != nil || !d.IsNil() {
				t.Fatalf("Dprev(%v) = %v, %v", v, d, err)
			}
		}
		// Both are also leaves (no children of their own).
		leaves, err := tx.Leaves(o)
		if err != nil || len(leaves) != 2 {
			t.Fatalf("leaves = %v, %v", leaves, err)
		}
		// Renderer handles the forest.
		out, err := tx.Render(o)
		if err != nil {
			return err
		}
		if !strings.Contains(out, "├── v2") || !strings.Contains(out, "└── v3") {
			t.Fatalf("forest render wrong:\n%s", out)
		}
		return tx.CheckObject(o)
	})
}

func TestInfoFields(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	ty := mustType(t, e, "T")
	var o oid.OID
	var v0, v1, v2 oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		o, v0, err = tx.Create(ty, bytes.Repeat([]byte("a"), 100))
		if err != nil {
			return err
		}
		if v1, err = tx.NewVersion(o); err != nil {
			return err
		}
		v2, err = tx.NewVersion(o) // v1 goes cold: demoted onto v0
		return err
	})
	w(t, e, func(tx *Tx) error {
		i0, err := tx.Info(o, v0)
		if err != nil {
			return err
		}
		if i0.VID != v0 || !i0.Dprev.IsNil() || !i0.Tprev.IsNil() || i0.Tnext != v1 {
			t.Fatalf("i0 = %+v", i0)
		}
		if i0.Size != 100 || i0.Delta || i0.ChainDepth != 0 {
			t.Fatalf("i0 storage = %+v", i0)
		}
		i1, err := tx.Info(o, v1)
		if err != nil {
			return err
		}
		if i1.Dprev != v0 || i1.Tprev != v0 || i1.Tnext != v2 {
			t.Fatalf("i1 = %+v", i1)
		}
		if !i1.Delta || i1.ChainDepth != 1 || i1.Size != 100 {
			t.Fatalf("i1 storage = %+v (expected a delta)", i1)
		}
		if i1.Stamp <= i0.Stamp {
			t.Fatalf("stamps not increasing: %v %v", i0.Stamp, i1.Stamp)
		}
		return nil
	})
}

// TestCheckObjectRejectsDependentAtDepthZero: depth 0 is a full
// payload's, so a dependent there is refused whatever its parent's
// depth. (The parent.depth+1 rule alone refuses this one too; it would
// accept one under a parent at depth 65535, where the 16-bit hint
// wraps, which takes a 65,536-link chain to reach.)
func TestCheckObjectRejectsDependentAtDepthZero(t *testing.T) {
	e := newEngine(t, Options{DeltaTier: true})
	o, vs := linearChain(t, e, 3)
	mustDependOn(t, e, o, vs[1], vs[0])
	err := e.Write(func(tx *Tx) error {
		b, err := tx.shardW(tx.byO(o))
		if err != nil {
			return err
		}
		rec, err := b.loadVer(o, vs[1])
		if err != nil {
			return err
		}
		rec.depth = 0
		if err := b.storeVer(o, vs[1], rec); err != nil {
			return err
		}
		return tx.CheckObject(o)
	})
	if err == nil || !strings.Contains(err.Error(), "depth 0") {
		t.Fatalf("CheckObject on a delta at depth 0: %v", err)
	}
}

// A read Tx that escapes its Engine.Read fails with ErrTxDone on a
// latest-version read, whether or not the dereference cache holds the
// object at the Tx's cut.
func TestReadLatestAfterReadEnds(t *testing.T) {
	e := newEngine(t, Options{})
	ty := mustType(t, e, "Part")
	var o oid.OID
	w(t, e, func(tx *Tx) error {
		var err error
		o, _, err = tx.Create(ty, []byte("v0"))
		return err
	})
	for _, warm := range []bool{false, true} {
		var escaped *Tx
		if err := e.Read(func(tx *Tx) error {
			escaped = tx
			if warm {
				_, _, err := tx.ReadLatest(o)
				return err
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := escaped.ReadLatest(o); !errors.Is(err, ErrTxDone) {
			t.Fatalf("warm %v: ReadLatest after Read returned: %v, want ErrTxDone", warm, err)
		}
	}
}
