package ode

// testdata/format/deltachain-history holds a cleanly closed one-shard
// directory written by the encode-at-write delta scheme, which is no
// longer in the engine: NewVersion stored a version sharing its base's
// bytes (a shared payload, no heap record), Set stored a delta against
// the D-parent, and every AnchorInterval-th link was a full keyframe, so
// the latest could be a delta. Today nothing writes a shared payload and
// only the delta tier writes deltas, never for the latest; this file
// proves the engine still reads, checks and compacts such history.
//
// The directory was written at commit 39d4e6d by this test in package
// ode, run as `go test -run TestWriteDeltaChainFixture -args
// -write-deltachain-fixture=<dir>` (imports encoding/json, flag, fmt,
// os, path/filepath, strings, testing; the manifest types are
// deltaChainObject and deltaChainVersion below):
//
//	var writeDeltaChainFixture = flag.String("write-deltachain-fixture", "", "directory to write the fixture to")
//
//	func dcContent(tag string) []byte {
//		return []byte(strings.Repeat("derived-from parent, stored as a delta. ", 5) + tag + strings.Repeat(" temporal chain, total order by creation.", 5))
//	}
//
//	func TestWriteDeltaChainFixture(t *testing.T) {
//		out := *writeDeltaChainFixture
//		if out == "" {
//			t.Skip("pass -args -write-deltachain-fixture=<dir>")
//		}
//		db, err := Open(out, &Options{Shards: 1, PageSize: 1024, Policy: DeltaChain, AnchorInterval: 4})
//		if err != nil {
//			t.Fatal(err)
//		}
//		tid, err := db.Engine().RegisterType("DeltaChainBlob")
//		if err != nil {
//			t.Fatal(err)
//		}
//		var objs []*deltaChainObject
//		content := map[VID][]byte{}
//		add := func(ob *deltaChainObject, v VID, c []byte) {
//			content[v] = c
//			ob.Versions = append(ob.Versions, deltaChainVersion{VID: uint64(v)})
//		}
//		must := func(err error) {
//			t.Helper()
//			if err != nil {
//				t.Fatal(err)
//			}
//		}
//		// Object A: a linear chain of nine versions past the keyframe at v5,
//		// a NewVersion with no Set (a shared payload), a branch from v2, and
//		// an in-place update of the interior v3. Its latest is the branch, a
//		// delta.
//		a := &deltaChainObject{}
//		objs = append(objs, a)
//		var av []VID
//		must(db.Update(func(tx *Tx) error {
//			o, v, err := tx.CreateRaw(tid, dcContent("A0"))
//			if err != nil {
//				return err
//			}
//			a.OID = uint64(o)
//			add(a, v, dcContent("A0"))
//			av = append(av, v)
//			return nil
//		}))
//		for i := 1; i <= 8; i++ {
//			c := dcContent(fmt.Sprintf("A%d", i))
//			must(db.Update(func(tx *Tx) error {
//				v, err := tx.NewVersion(OID(a.OID))
//				if err != nil {
//					return err
//				}
//				add(a, v, c)
//				av = append(av, v)
//				return tx.UpdateVersionRaw(OID(a.OID), v, c)
//			}))
//		}
//		must(db.Update(func(tx *Tx) error {
//			v, err := tx.NewVersion(OID(a.OID)) // shared with A8
//			if err != nil {
//				return err
//			}
//			add(a, v, dcContent("A8"))
//			return nil
//		}))
//		must(db.Update(func(tx *Tx) error {
//			v, err := tx.NewVersionFrom(OID(a.OID), av[2])
//			if err != nil {
//				return err
//			}
//			c := dcContent("A2-branch")
//			add(a, v, c)
//			return tx.UpdateVersionRaw(OID(a.OID), v, c)
//		}))
//		must(db.Update(func(tx *Tx) error {
//			c := dcContent("A3-updated")
//			content[av[3]] = c
//			return tx.UpdateVersionRaw(OID(a.OID), av[3], c)
//		}))
//		// Object B: a root and a version sharing its bytes, the latest.
//		b := &deltaChainObject{}
//		objs = append(objs, b)
//		must(db.Update(func(tx *Tx) error {
//			o, v, err := tx.CreateRaw(tid, dcContent("B0"))
//			if err != nil {
//				return err
//			}
//			b.OID = uint64(o)
//			add(b, v, dcContent("B0"))
//			v, err = tx.NewVersion(o)
//			if err != nil {
//				return err
//			}
//			add(b, v, dcContent("B0"))
//			return nil
//		}))
//		must(db.View(func(tx *Tx) error {
//			for _, ob := range objs {
//				l, err := tx.Latest(OID(ob.OID))
//				if err != nil {
//					return err
//				}
//				ob.Latest = uint64(l)
//				for i := range ob.Versions {
//					ob.Versions[i].Content = string(content[VID(ob.Versions[i].VID)])
//				}
//			}
//			return nil
//		}))
//		must(db.CheckIntegrity())
//		must(db.Close())
//		manifest, err := json.MarshalIndent(objs, "", " ")
//		must(err)
//		must(os.WriteFile(filepath.Join(out, "expect.json"), append(manifest, '\n'), 0o644))
//	}

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const deltaChainFixture = "deltachain-history"

// deltaChainInterval is the AnchorInterval the fixture was written at.
const deltaChainInterval = 4

// deltaChainObject is one manifest row: an object, its latest version
// and every version's content.
type deltaChainObject struct {
	OID      uint64              `json:"oid"`
	Latest   uint64              `json:"latest"`
	Versions []deltaChainVersion `json:"versions"`
}

type deltaChainVersion struct {
	VID     uint64 `json:"vid"`
	Content string `json:"content"`
}

// openDeltaChainFixture opens a fresh copy of the fixture directory and
// returns it with its manifest.
func openDeltaChainFixture(t *testing.T, opts *Options) (*DB, []*deltaChainObject) {
	t.Helper()
	src := filepath.Join(formatFixtureRoot, deltaChainFixture)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var model []*deltaChainObject
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == formatManifest {
			if err := json.Unmarshal(b, &model); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, model
}

// checkDeltaChainModel holds db to the manifest: every version's
// content, every object's latest, and a clean CheckIntegrity.
func checkDeltaChainModel(t *testing.T, db *DB, model []*deltaChainObject) {
	t.Helper()
	if err := db.View(func(tx *Tx) error {
		for _, ob := range model {
			o := OID(ob.OID)
			if l, err := tx.Latest(o); err != nil || l != VID(ob.Latest) {
				return fmt.Errorf("object %d: latest %v %v, want %d", ob.OID, l, err, ob.Latest)
			}
			for _, want := range ob.Versions {
				got, err := tx.ReadVersionRaw(o, VID(want.VID))
				if err != nil {
					return fmt.Errorf("object %d version %d: %w", ob.OID, want.VID, err)
				}
				if string(got) != want.Content {
					return fmt.Errorf("object %d version %d: content differs from the manifest", ob.OID, want.VID)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// latestStorage reports, per object, whether its latest is stored
// dependently (a delta or a shared payload).
func latestStorage(t *testing.T, db *DB, model []*deltaChainObject) []bool {
	t.Helper()
	var dep []bool
	if err := db.View(func(tx *Tx) error {
		for _, ob := range model {
			info, err := tx.Info(OID(ob.OID), VID(ob.Latest))
			if err != nil {
				return err
			}
			dep = append(dep, info.Delta)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dep
}

// extendDeltaChain derives a new latest from ob's (dependent) latest and
// sets it, recording the new version in the manifest.
func extendDeltaChain(t *testing.T, db *DB, ob *deltaChainObject) {
	t.Helper()
	content := fmt.Sprintf("after %d: derived from a dependent latest", ob.Latest)
	if err := db.Update(func(tx *Tx) error {
		v, err := tx.NewVersion(OID(ob.OID))
		if err != nil {
			return err
		}
		ob.Latest = uint64(v)
		return tx.UpdateVersionRaw(OID(ob.OID), v, []byte(content))
	}); err != nil {
		t.Fatal(err)
	}
	ob.Versions = append(ob.Versions, deltaChainVersion{VID: ob.Latest, Content: content})
}

func TestDeltaChainHistoryFixture(t *testing.T) {
	for _, tier := range []bool{false, true} {
		t.Run(fmt.Sprintf("tier=%v", tier), func(t *testing.T) {
			db, model := openDeltaChainFixture(t, &Options{DeltaTier: tier, AnchorInterval: deltaChainInterval})
			checkDeltaChainModel(t, db, model)
			// The shape the fixture is for: shared payloads, and a delta
			// latest (object A's) beside a shared one (object B's).
			if ps := payloadStats(t, db); ps.Same == 0 || ps.Delta == 0 {
				t.Fatalf("fixture payloads %+v: want shared payloads and deltas", ps)
			}
			if dep := latestStorage(t, db, model); !dep[0] || !dep[1] {
				t.Fatalf("latest dependent per object %v, want all", dep)
			}
			if !tier {
				for _, ob := range model {
					extendDeltaChain(t, db, ob)
				}
				checkDeltaChainModel(t, db, model)
				return
			}
			// Object A's delta latest is left for Compact to anchor.
			extendDeltaChain(t, db, model[1])
			checkDeltaChainModel(t, db, model)
			st, err := db.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if st.Promoted == 0 {
				t.Fatalf("Compact anchored nothing: %+v", st)
			}
			for i, dep := range latestStorage(t, db, model) {
				if dep {
					t.Errorf("object %d: latest still dependent after Compact", model[i].OID)
				}
			}
			if ps := payloadStats(t, db); ps.MaxDepth > deltaChainInterval {
				t.Errorf("chain depth %d after Compact, interval %d", ps.MaxDepth, deltaChainInterval)
			}
			checkDeltaChainModel(t, db, model)
			if st, err := db.Compact(); err != nil || st.Demoted+st.Promoted != 0 {
				t.Fatalf("second Compact: %+v %v, want nothing to do", st, err)
			}
			extendDeltaChain(t, db, model[0])
			checkDeltaChainModel(t, db, model)
		})
	}
}
