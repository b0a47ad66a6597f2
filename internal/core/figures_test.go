package core

// Figure reproduction tests (DESIGN.md §4.1). The paper's §4 figures
// walk one object through newversion calls, drawing the derived-from
// tree (solid arrows) and temporal order (dotted arrows). Each test
// below reproduces one figure state and compares the engine's rendering
// against a golden string in the same notation.

import (
	"fmt"
	"strings"
	"testing"

	"ode/internal/oid"
)

// figureObject builds the paper's running example up to step n:
//
//	step 1: p = pnew  (v0, the root version; oid p refers to it)
//	step 2: newversion(p)   → v1 derived from v0   (F1: revision)
//	step 3: newversion(vp0) → v2 derived from v0   (F2: alternatives)
//	step 4: newversion(vp1) → v3 derived from v1   (F3: history v3,v1,v0)
//
// In this database v0..v3 receive vids v1..v4 (ids start at 1).
func figureObject(t *testing.T, e *Engine, steps int) (oid.OID, []oid.VID) {
	t.Helper()
	ty := mustType(t, e, "item")
	var o oid.OID
	var vids []oid.VID
	w(t, e, func(tx *Tx) error {
		var err error
		var v oid.VID
		o, v, err = tx.Create(ty, []byte("v0"))
		if err != nil {
			return err
		}
		vids = append(vids, v)
		if steps >= 2 {
			v, err = tx.NewVersion(o) // derived from latest = v0
			if err != nil {
				return err
			}
			vids = append(vids, v)
		}
		if steps >= 3 {
			v, err = tx.NewVersionFrom(o, vids[0]) // alternative from v0
			if err != nil {
				return err
			}
			vids = append(vids, v)
		}
		if steps >= 4 {
			v, err = tx.NewVersionFrom(o, vids[1]) // revision of v1
			if err != nil {
				return err
			}
			vids = append(vids, v)
		}
		return nil
	})
	return o, vids
}

func renderOf(t *testing.T, e *Engine, o oid.OID) string {
	t.Helper()
	var out string
	w(t, e, func(tx *Tx) error {
		var err error
		out, err = tx.Render(o)
		return err
	})
	return out
}

// TestFigureRevision reproduces F1: after one newversion, v1 is a
// revision of v0; the oid binds to v1; temporal and derived-from edges
// coincide.
func TestFigureRevision(t *testing.T) {
	e := newEngine(t, Options{})
	o, vids := figureObject(t, e, 2)
	golden := strings.Join([]string{
		"o1 (item) latest=v2 versions=2",
		"derived-from:",
		"  └── v1",
		"      └── v2 *latest",
		"temporal:  v1 ··▶ v2",
		"",
	}, "\n")
	if got := renderOf(t, e, o); got != golden {
		t.Fatalf("F1 mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	w(t, e, func(tx *Tx) error { return tx.CheckObject(o) })
	_ = vids
}

// TestFigureAlternatives reproduces F2: v1 and v2 are variants
// (alternatives), both derived from v0; the temporal order is still the
// creation order.
func TestFigureAlternatives(t *testing.T) {
	e := newEngine(t, Options{})
	o, _ := figureObject(t, e, 3)
	golden := strings.Join([]string{
		"o1 (item) latest=v3 versions=3",
		"derived-from:",
		"  └── v1",
		"      ├── v2",
		"      └── v3 *latest",
		"temporal:  v1 ··▶ v2 ··▶ v3",
		"",
	}, "\n")
	if got := renderOf(t, e, o); got != golden {
		t.Fatalf("F2 mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestFigureHistory reproduces F3: newversion(v1) yields v3; v3, v1, v0
// constitute a version history; the leaves v2 and v3 are the tips of the
// two alternative designs; the oid binds to v3 (the temporal maximum)
// even though it was not derived from the previous latest.
func TestFigureHistory(t *testing.T) {
	e := newEngine(t, Options{})
	o, vids := figureObject(t, e, 4)
	golden := strings.Join([]string{
		"o1 (item) latest=v4 versions=4",
		"derived-from:",
		"  └── v1",
		"      ├── v2",
		"      │   └── v4 *latest",
		"      └── v3",
		"temporal:  v1 ··▶ v2 ··▶ v3 ··▶ v4",
		"",
	}, "\n")
	if got := renderOf(t, e, o); got != golden {
		t.Fatalf("F3 mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	w(t, e, func(tx *Tx) error {
		// "v3, v1, and v0 constitute a version history" — in our vids:
		// v4, v2, v1.
		hist, err := tx.History(o, vids[3])
		if err != nil {
			return err
		}
		want := []oid.VID{vids[3], vids[1], vids[0]}
		if len(hist) != 3 || hist[0] != want[0] || hist[1] != want[1] || hist[2] != want[2] {
			t.Fatalf("history = %v want %v", hist, want)
		}
		return tx.CheckObject(o)
	})
}

// TestFigurePdelete reproduces F4 (§4.4): pdelete on a version id
// removes one version and splices the tree; pdelete on an object id
// removes the object and all its versions.
func TestFigurePdelete(t *testing.T) {
	e := newEngine(t, Options{})
	o, vids := figureObject(t, e, 4)
	// Delete v1 (paper's v0's first revision): v4 re-parents onto v1's
	// parent v0 (our v1).
	w(t, e, func(tx *Tx) error { return tx.DeleteVersion(o, vids[1]) })
	golden := strings.Join([]string{
		"o1 (item) latest=v4 versions=3",
		"derived-from:",
		"  └── v1",
		"      ├── v3",
		"      └── v4 *latest",
		"temporal:  v1 ··▶ v3 ··▶ v4",
		"",
	}, "\n")
	if got := renderOf(t, e, o); got != golden {
		t.Fatalf("F4a mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	w(t, e, func(tx *Tx) error { return tx.CheckObject(o) })
	// pdelete(oid): everything goes.
	w(t, e, func(tx *Tx) error { return tx.DeleteObject(o) })
	w(t, e, func(tx *Tx) error {
		if ok, _ := tx.Exists(o); ok {
			t.Fatal("object survived pdelete(oid)")
		}
		for _, v := range vids {
			if _, err := tx.Owner(v); err == nil {
				t.Fatalf("version %v survived pdelete(oid)", v)
			}
		}
		return nil
	})
	if st := e.Stats(); st.Objects != 0 || st.Versions != 0 {
		t.Fatalf("stats after pdelete: %+v", st)
	}
}

// TestFiguresIdenticalUnderDeltaPolicy re-runs the F3 state under the
// delta tier, with contents that make every cold version a delta: the
// storage representation must be invisible in the version graph
// (policy/mechanism separation).
func TestFiguresIdenticalUnderDeltaPolicy(t *testing.T) {
	eFull := newEngine(t, Options{})
	eDelta := newEngine(t, Options{DeltaTier: true})
	oF, vF := figureObject(t, eFull, 4)
	oD, vD := figureObject(t, eDelta, 4)
	// Parents first, so each version is written against its parent's
	// final content.
	for _, pair := range []struct {
		e  *Engine
		o  oid.OID
		vs []oid.VID
	}{{eFull, oF, vF}, {eDelta, oD, vD}} {
		w(t, pair.e, func(tx *Tx) error {
			for i, v := range pair.vs {
				if err := tx.UpdateVersion(pair.o, v, similar(fmt.Sprint(i))); err != nil {
					return err
				}
			}
			return nil
		})
	}
	w(t, eDelta, func(tx *Tx) error {
		for _, v := range vD[1:3] {
			if info, err := tx.Info(oD, v); err != nil || !info.Delta {
				t.Fatalf("%v: %+v %v, want a delta", v, info, err)
			}
		}
		return nil
	})
	if a, b := renderOf(t, eFull, oF), renderOf(t, eDelta, oD); a != b {
		t.Fatalf("policies diverge:\n%s\nvs\n%s", a, b)
	}
}
