package core

// Property tests: a random operation sequence is applied to (a) an
// in-memory model of the paper's semantics, (b) a full-copy engine, and
// (c) a delta-tier engine. After every burst the three must agree on all
// version contents, latest bindings, derivation parents, and temporal
// order — and both engines must pass the full invariant check. This is
// the strongest statement that delta storage is a pure storage policy
// with no semantic footprint.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ode/internal/oid"
)

// modelObject is the reference implementation of a versioned object.
type modelObject struct {
	versions map[int][]byte // seq → content
	dprev    map[int]int    // seq → parent seq (-1 root)
	temporal []int          // alive seqs in creation order
	alive    bool
}

func (m *modelObject) latest() int { return m.temporal[len(m.temporal)-1] }

func TestPolicyEquivalenceRandomised(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runPolicyEquivalence(t, seed)
		})
	}
}

func runPolicyEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eFull := newEngine(t, Options{})
	eDelta := newEngine(t, Options{DeltaTier: true, AnchorInterval: 4})
	tyF := mustType(t, eFull, "X")
	tyD := mustType(t, eDelta, "X")

	// Engine vids are allocated identically (same op sequence), so we
	// can map model (objIdx, seq) pairs to each engine's ids directly.
	type ids struct {
		full, delta struct {
			o uint64
			v map[int]uint64
		}
	}
	var objects []*modelObject
	var objIDs []*ids

	randContent := func() []byte {
		b := make([]byte, rng.Intn(600)+1)
		rng.Read(b)
		return b
	}
	aliveObjects := func() []int {
		var out []int
		for i, m := range objects {
			if m.alive {
				out = append(out, i)
			}
		}
		return out
	}

	// onDependent counts updates and deletes whose target, in the
	// delta engine, is a delta or has a delta child: the paths that must
	// detach or re-encode dependents.
	onDependent := 0
	countDependent := func(o, v uint64) {
		if err := eDelta.Read(func(tx *Tx) error {
			vs, err := tx.DChildren(toOID(o), toVID(v))
			for _, c := range append(vs, toVID(v)) {
				info, err := tx.Info(toOID(o), c)
				if err != nil {
					return err
				}
				if info.Delta {
					onDependent++
					break
				}
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// edit returns b with a few bytes changed, so the delta engine can
	// demote an updated version against its parent.
	edit := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		for i := 0; i < 3 && len(out) > 0; i++ {
			out[rng.Intn(len(out))] ^= byte(rng.Intn(255) + 1)
		}
		return out
	}

	const bursts = 12
	const opsPerBurst = 25
	nextSeq := 0

	for burst := 0; burst < bursts; burst++ {
		for op := 0; op < opsPerBurst; op++ {
			alive := aliveObjects()
			choice := rng.Intn(10)
			switch {
			case choice < 2 || len(alive) == 0: // create
				content := randContent()
				m := &modelObject{
					versions: map[int][]byte{},
					dprev:    map[int]int{},
					alive:    true,
				}
				seq := nextSeq
				nextSeq++
				m.versions[seq] = content
				m.dprev[seq] = -1
				m.temporal = []int{seq}
				objects = append(objects, m)
				id := &ids{}
				id.full.v = map[int]uint64{}
				id.delta.v = map[int]uint64{}
				applyCreate := func(e *Engine, tyID uint32, o *uint64, vm map[int]uint64) {
					if err := e.Write(func(tx *Tx) error {
						oo, vv, err := tx.Create(toTypeID(tyID), content)
						if err != nil {
							return err
						}
						*o = uint64(oo)
						vm[seq] = uint64(vv)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				applyCreate(eFull, uint32(tyF), &id.full.o, id.full.v)
				applyCreate(eDelta, uint32(tyD), &id.delta.o, id.delta.v)
				objIDs = append(objIDs, id)

			case choice < 5: // newversion (from latest or from a random base)
				oi := alive[rng.Intn(len(alive))]
				m, id := objects[oi], objIDs[oi]
				fromLatest := rng.Intn(2) == 0
				base := m.latest()
				if !fromLatest {
					base = m.temporal[rng.Intn(len(m.temporal))]
				}
				seq := nextSeq
				nextSeq++
				m.versions[seq] = append([]byte(nil), m.versions[base]...)
				m.dprev[seq] = base
				m.temporal = append(m.temporal, seq)
				applyNV := func(e *Engine, o uint64, vm map[int]uint64) {
					if err := e.Write(func(tx *Tx) error {
						vv, err := tx.NewVersionFrom(toOID(o), toVID(vm[base]))
						if err != nil {
							return err
						}
						vm[seq] = uint64(vv)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				applyNV(eFull, id.full.o, id.full.v)
				applyNV(eDelta, id.delta.o, id.delta.v)

			case choice < 8: // update a random live version in place
				oi := alive[rng.Intn(len(alive))]
				m, id := objects[oi], objIDs[oi]
				seq := m.temporal[rng.Intn(len(m.temporal))]
				content := randContent()
				if rng.Intn(2) == 0 {
					content = edit(m.versions[seq])
				}
				m.versions[seq] = content
				countDependent(id.delta.o, id.delta.v[seq])
				applyUp := func(e *Engine, o uint64, vm map[int]uint64) {
					if err := e.Write(func(tx *Tx) error {
						return tx.UpdateVersion(toOID(o), toVID(vm[seq]), content)
					}); err != nil {
						t.Fatal(err)
					}
				}
				applyUp(eFull, id.full.o, id.full.v)
				applyUp(eDelta, id.delta.o, id.delta.v)

			case choice < 9: // delete one version
				oi := alive[rng.Intn(len(alive))]
				m, id := objects[oi], objIDs[oi]
				seq := m.temporal[rng.Intn(len(m.temporal))]
				countDependent(id.delta.o, id.delta.v[seq])
				applyDel := func(e *Engine, o uint64, vm map[int]uint64) {
					if err := e.Write(func(tx *Tx) error {
						return tx.DeleteVersion(toOID(o), toVID(vm[seq]))
					}); err != nil {
						t.Fatal(err)
					}
				}
				applyDel(eFull, id.full.o, id.full.v)
				applyDel(eDelta, id.delta.o, id.delta.v)
				// Model: splice.
				if len(m.temporal) == 1 {
					m.alive = false
					m.temporal = nil
				} else {
					parent := m.dprev[seq]
					for s, p := range m.dprev {
						if p == seq {
							m.dprev[s] = parent
						}
					}
					for i, s := range m.temporal {
						if s == seq {
							m.temporal = append(m.temporal[:i], m.temporal[i+1:]...)
							break
						}
					}
					delete(m.versions, seq)
					delete(m.dprev, seq)
				}

			default: // delete whole object
				oi := alive[rng.Intn(len(alive))]
				m, id := objects[oi], objIDs[oi]
				applyDO := func(e *Engine, o uint64) {
					if err := e.Write(func(tx *Tx) error {
						return tx.DeleteObject(toOID(o))
					}); err != nil {
						t.Fatal(err)
					}
				}
				applyDO(eFull, id.full.o)
				applyDO(eDelta, id.delta.o)
				m.alive = false
				m.temporal = nil
			}
		}

		// Burst validation: model vs both engines.
		for oi, m := range objects {
			id := objIDs[oi]
			for which, pair := range []struct {
				e *Engine
				o uint64
				v map[int]uint64
			}{
				{eFull, id.full.o, id.full.v},
				{eDelta, id.delta.o, id.delta.v},
			} {
				err := pair.e.Read(func(tx *Tx) error {
					exists, err := tx.Exists(toOID(pair.o))
					if err != nil {
						return err
					}
					if exists != m.alive {
						t.Fatalf("burst %d eng %d obj %d: exists=%v model=%v", burst, which, oi, exists, m.alive)
					}
					if !m.alive {
						return nil
					}
					// Latest binding.
					latest, err := tx.Latest(toOID(pair.o))
					if err != nil {
						return err
					}
					if uint64(latest) != pair.v[m.latest()] {
						t.Fatalf("burst %d eng %d obj %d: latest %v != model %d", burst, which, oi, latest, m.latest())
					}
					// All contents and derivation parents.
					for seq, want := range m.versions {
						got, err := tx.ReadVersion(toOID(pair.o), toVID(pair.v[seq]))
						if err != nil {
							return fmt.Errorf("obj %d seq %d: %w", oi, seq, err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("burst %d eng %d obj %d seq %d: content mismatch", burst, which, oi, seq)
						}
						d, err := tx.Dprev(toOID(pair.o), toVID(pair.v[seq]))
						if err != nil {
							return err
						}
						wantD := uint64(0)
						if p := m.dprev[seq]; p >= 0 {
							wantD = pair.v[p]
						}
						if uint64(d) != wantD {
							t.Fatalf("burst %d eng %d obj %d seq %d: dprev %v != %d", burst, which, oi, seq, d, wantD)
						}
					}
					// Temporal order.
					vs, err := tx.Versions(toOID(pair.o))
					if err != nil {
						return err
					}
					if len(vs) != len(m.temporal) {
						t.Fatalf("burst %d eng %d obj %d: %d versions vs model %d", burst, which, oi, len(vs), len(m.temporal))
					}
					for i, s := range m.temporal {
						if uint64(vs[i]) != pair.v[s] {
							t.Fatalf("burst %d eng %d obj %d: temporal[%d] mismatch", burst, which, oi, i)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// Full invariant sweep on both engines.
		if err := eFull.Read(func(tx *Tx) error { return tx.CheckAll() }); err != nil {
			t.Fatalf("burst %d FullCopy invariants: %v", burst, err)
		}
		if err := eDelta.Read(func(tx *Tx) error { return tx.CheckAll() }); err != nil {
			t.Fatalf("burst %d delta-tier invariants: %v", burst, err)
		}
	}
	if onDependent == 0 {
		t.Fatal("no update or delete reached a delta payload: the delta engine was never tested")
	}
	t.Logf("%d updates and deletes reached a delta payload", onDependent)
}

// Tiny conversion helpers keep the table-driven loops readable.
func toOID(v uint64) oid.OID       { return oid.OID(v) }
func toVID(v uint64) oid.VID       { return oid.VID(v) }
func toTypeID(v uint32) oid.TypeID { return oid.TypeID(v) }
