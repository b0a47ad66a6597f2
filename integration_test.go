package ode

// Soak test: a long randomized workload through the public API — typed
// objects, versions, alternatives, deletions, an index, configurations
// — interleaved with database reopens, validated against an in-memory
// model and full integrity sweeps after every epoch.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

type soakDoc struct {
	Tag  string
	Body []byte
}

type soakVersion struct {
	tag  string
	body []byte
}

type soakObject struct {
	versions map[VID]*soakVersion
	temporal []VID
	alive    bool
}

func (so *soakObject) latest() VID { return so.temporal[len(so.temporal)-1] }

func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := t.TempDir()
	opts := &Options{DeltaTier: true, AnchorInterval: 6, PageSize: 1024, Shards: envShards()}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := Register[soakDoc](db, "soakDoc")
	if err != nil {
		t.Fatal(err)
	}
	byTag, err := docs.EnsureIndex("tag", func(d *soakDoc) ([]byte, bool) {
		return KeyString(d.Tag), true
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20260704))
	model := map[OID]*soakObject{}
	tags := []string{"red", "green", "blue", "cyan"}

	randDoc := func() *soakDoc {
		body := make([]byte, rng.Intn(800))
		rng.Read(body)
		return &soakDoc{Tag: tags[rng.Intn(len(tags))], Body: body}
	}
	aliveOids := func() []OID {
		var out []OID
		for o, so := range model {
			if so.alive {
				out = append(out, o)
			}
		}
		return out
	}

	const epochs = 8
	const opsPerEpoch = 120
	for epoch := 0; epoch < epochs; epoch++ {
		for op := 0; op < opsPerEpoch; op++ {
			alive := aliveOids()
			switch c := rng.Intn(12); {
			case c < 3 || len(alive) == 0: // create
				d := randDoc()
				err := db.Update(func(tx *Tx) error {
					p, err := docs.Create(tx, d)
					if err != nil {
						return err
					}
					v, err := tx.Latest(p.OID())
					if err != nil {
						return err
					}
					model[p.OID()] = &soakObject{
						versions: map[VID]*soakVersion{v: {tag: d.Tag, body: d.Body}},
						temporal: []VID{v},
						alive:    true,
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case c < 6: // newversion from a random base + edit
				o := alive[rng.Intn(len(alive))]
				so := model[o]
				base := so.temporal[rng.Intn(len(so.temporal))]
				d := randDoc()
				err := db.Update(func(tx *Tx) error {
					nv, err := tx.NewVersionFrom(o, base)
					if err != nil {
						return err
					}
					p, err := docs.Ref(tx, o)
					if err != nil {
						return err
					}
					vs, err := p.Versions(tx)
					if err != nil {
						return err
					}
					_ = vs
					pin := VPtr[soakDoc]{obj: o, vid: nv, ty: docs}
					if err := pin.Set(tx, d); err != nil {
						return err
					}
					so.versions[nv] = &soakVersion{tag: d.Tag, body: d.Body}
					so.temporal = append(so.temporal, nv)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case c < 8: // in-place update of a random version
				o := alive[rng.Intn(len(alive))]
				so := model[o]
				v := so.temporal[rng.Intn(len(so.temporal))]
				d := randDoc()
				err := db.Update(func(tx *Tx) error {
					pin := VPtr[soakDoc]{obj: o, vid: v, ty: docs}
					if err := pin.Set(tx, d); err != nil {
						return err
					}
					so.versions[v] = &soakVersion{tag: d.Tag, body: d.Body}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case c < 9: // delete one version
				o := alive[rng.Intn(len(alive))]
				so := model[o]
				v := so.temporal[rng.Intn(len(so.temporal))]
				err := db.Update(func(tx *Tx) error { return tx.DeleteVersion(o, v) })
				if err != nil {
					t.Fatal(err)
				}
				if len(so.temporal) == 1 {
					so.alive = false
					so.temporal = nil
				} else {
					for i, x := range so.temporal {
						if x == v {
							so.temporal = append(so.temporal[:i], so.temporal[i+1:]...)
							break
						}
					}
					delete(so.versions, v)
				}
			case c < 10: // delete object
				o := alive[rng.Intn(len(alive))]
				err := db.Update(func(tx *Tx) error { return tx.DeleteObject(o) })
				if err != nil {
					t.Fatal(err)
				}
				model[o].alive = false
				model[o].temporal = nil
			case c < 11: // aborted transaction: must leave no trace
				o := alive[rng.Intn(len(alive))]
				boom := errors.New("chaos")
				err := db.Update(func(tx *Tx) error {
					if _, err := tx.NewVersion(o); err != nil {
						return err
					}
					if _, err := docs.Create(tx, randDoc()); err != nil {
						return err
					}
					return boom
				})
				if !errors.Is(err, boom) {
					t.Fatal(err)
				}
			default: // point validation via index
				err := db.View(func(tx *Tx) error {
					tag := tags[rng.Intn(len(tags))]
					hits, err := byTag.Lookup(tx, KeyString(tag))
					if err != nil {
						return err
					}
					want := 0
					for _, so := range model {
						if so.alive && so.versions[so.latest()].tag == tag {
							want++
						}
					}
					if len(hits) != want {
						return fmt.Errorf("index %q: %d hits, model %d", tag, len(hits), want)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}

		// Epoch validation: every model fact against the database.
		err := db.View(func(tx *Tx) error {
			for o, so := range model {
				exists, err := tx.Exists(o)
				if err != nil {
					return err
				}
				if exists != so.alive {
					return fmt.Errorf("epoch %d: %v exists=%v model=%v", epoch, o, exists, so.alive)
				}
				if !so.alive {
					continue
				}
				latest, err := tx.Latest(o)
				if err != nil {
					return err
				}
				if latest != so.latest() {
					return fmt.Errorf("epoch %d: %v latest %v model %v", epoch, o, latest, so.latest())
				}
				vs, err := tx.Versions(o)
				if err != nil {
					return err
				}
				if len(vs) != len(so.temporal) {
					return fmt.Errorf("epoch %d: %v has %d versions, model %d", epoch, o, len(vs), len(so.temporal))
				}
				for i := range vs {
					if vs[i] != so.temporal[i] {
						return fmt.Errorf("epoch %d: %v temporal[%d] mismatch", epoch, o, i)
					}
				}
				for v, mv := range so.versions {
					pin := VPtr[soakDoc]{obj: o, vid: v, ty: docs}
					got, err := pin.Deref(tx)
					if err != nil {
						return fmt.Errorf("epoch %d: %v/%v: %w", epoch, o, v, err)
					}
					if got.Tag != mv.tag || !bytes.Equal(got.Body, mv.body) {
						return fmt.Errorf("epoch %d: %v/%v content mismatch", epoch, o, v)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CheckIntegrity(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err := byTag.Err(); err != nil {
			t.Fatalf("epoch %d index: %v", epoch, err)
		}

		// Every other epoch: reopen the database (clean close or crash).
		if epoch%2 == 1 {
			crash := rng.Intn(2) == 0
			if !crash {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// On crash we simply abandon the handle: committed work is in
			// the WAL (sync commits) and recovery must restore it.
			db, err = Open(dir, opts)
			if err != nil {
				t.Fatalf("epoch %d reopen (crash=%v): %v", epoch, crash, err)
			}
			docs, err = Register[soakDoc](db, "soakDoc")
			if err != nil {
				t.Fatal(err)
			}
			byTag, err = docs.EnsureIndex("tag", func(d *soakDoc) ([]byte, bool) {
				return KeyString(d.Tag), true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeScale exercises the engine at a size where page eviction,
// index depth, and WAL checkpointing all engage: 10 000 objects with
// versions, an index, crash-reopen, and a full integrity sweep.
func TestLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	dir := t.TempDir()
	opts := &Options{DeltaTier: true, NoSync: true, PoolPages: 256}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := Register[soakDoc](db, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	byTag, err := docs.EnsureIndex("tag", func(d *soakDoc) ([]byte, bool) {
		return KeyString(d.Tag), true
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	rng := rand.New(rand.NewSource(7))
	var sample []Ptr[soakDoc]
	const batch = 500
	for start := 0; start < n; start += batch {
		if err := db.Update(func(tx *Tx) error {
			for i := start; i < start+batch; i++ {
				body := make([]byte, rng.Intn(200)+16)
				rng.Read(body)
				p, err := docs.Create(tx, &soakDoc{
					Tag:  fmt.Sprintf("t%d", i%7),
					Body: body,
				})
				if err != nil {
					return err
				}
				if i%500 == 0 {
					sample = append(sample, p)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Version a sample with edits.
	if err := db.Update(func(tx *Tx) error {
		for _, p := range sample {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			if err := nv.Modify(tx, func(d *soakDoc) { d.Tag = "versioned" }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Objects != n || st.Versions != n+uint64(len(sample)) {
		t.Fatalf("stats = %+v", st)
	}
	// Index sees the moved objects.
	if err := db.View(func(tx *Tx) error {
		hits, err := byTag.Lookup(tx, KeyString("versioned"))
		if err != nil || len(hits) != len(sample) {
			t.Fatalf("index after versioning: %d %v", len(hits), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Reopen from disk (clean close) and sweep invariants.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	docs2, _ := Register[soakDoc](db2, "bulk")
	if err := db2.View(func(tx *Tx) error {
		count, err := docs2.Count(tx)
		if err != nil || count != n {
			t.Fatalf("count after reopen: %d %v", count, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
