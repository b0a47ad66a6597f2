package ode

// Benchmarks: one family per experiment table in EXPERIMENTS.md
// (DESIGN.md §4.2, E1–E10). cmd/odebench produces the full parameter
// sweeps; these testing.B benchmarks expose the same code paths to
// `go test -bench` with -benchmem.

import (
	"fmt"
	"math/rand"
	"testing"
)

type blob struct{ Data []byte }

type rawBlobCodec struct{}

func (rawBlobCodec) Marshal(b *blob) ([]byte, error) { return b.Data, nil }
func (rawBlobCodec) Unmarshal(d []byte) (*blob, error) {
	return &blob{Data: append([]byte(nil), d...)}, nil
}

func benchDB(b *testing.B, opts *Options) (*DB, *Type[blob]) {
	b.Helper()
	if opts == nil {
		opts = &Options{}
	}
	opts.NoSync = true
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	ty, err := RegisterWithCodec[blob](db, "blob", rawBlobCodec{})
	if err != nil {
		b.Fatal(err)
	}
	return db, ty
}

func payload(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// --- E1: version orthogonality ---

func benchmarkE1(b *testing.B, mode string) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(1))
	var p Ptr[blob]
	err := db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: payload(rng, 1024)})
		if err != nil {
			return err
		}
		if mode == "versioned" {
			_, err = p.NewVersion(tx)
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	content := payload(rng, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			switch mode {
			case "newversion":
				nv, err := p.NewVersion(tx)
				if err != nil {
					return err
				}
				if err := nv.Set(tx, &blob{Data: content}); err != nil {
					return err
				}
			default:
				if err := p.Set(tx, &blob{Data: content}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE1UpdateUnversioned(b *testing.B) { benchmarkE1(b, "unversioned") }
func BenchmarkE1UpdateVersioned(b *testing.B)   { benchmarkE1(b, "versioned") }
func BenchmarkE1NewVersionEach(b *testing.B)    { benchmarkE1(b, "newversion") }

// --- E2: generic vs specific dereference ---

func benchmarkE2(b *testing.B, generic bool) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(2))
	const n = 256
	var ptrs []Ptr[blob]
	var pins []VPtr[blob]
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			p, err := ty.Create(tx, &blob{Data: payload(rng, 512)})
			if err != nil {
				return err
			}
			for v := 0; v < 7; v++ {
				if _, err := p.NewVersion(tx); err != nil {
					return err
				}
			}
			pin, err := p.Pin(tx)
			if err != nil {
				return err
			}
			ptrs = append(ptrs, p)
			pins = append(pins, pin)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			k := i % n
			var err error
			if generic {
				_, err = ptrs[k].Deref(tx)
			} else {
				_, err = pins[k].Deref(tx)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE2DerefGeneric(b *testing.B)  { benchmarkE2(b, true) }
func BenchmarkE2DerefSpecific(b *testing.B) { benchmarkE2(b, false) }

// --- E3: delta vs full-copy tip reads ---

func benchmarkE3(b *testing.B, tier bool, chain int) {
	db, ty := benchDB(b, &Options{DeltaTier: tier})
	rng := rand.New(rand.NewSource(3))
	content := payload(rng, 4096)
	var p Ptr[blob]
	err := db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: content})
		if err != nil {
			return err
		}
		cur := content
		for i := 0; i < chain; i++ {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			cur = append([]byte(nil), cur...)
			cur[rng.Intn(len(cur))] ^= 0x5A
			if err := nv.Set(tx, &blob{Data: cur}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	err = db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := p.Deref(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE3TipReadFullCopy32(b *testing.B)  { benchmarkE3(b, false, 32) }
func BenchmarkE3TipReadDeltaTier32(b *testing.B) { benchmarkE3(b, true, 32) }

// --- E4: alternatives, tree vs linear replay ---

func benchmarkE4(b *testing.B, linear bool) {
	db, ty := benchDB(b, &Options{DeltaTier: true})
	rng := rand.New(rand.NewSource(4))
	const depth = 64
	var p Ptr[blob]
	var mid VPtr[blob]
	err := db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: payload(rng, 2048)})
		if err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			if i == depth/2 {
				mid = nv
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if linear {
				// Linear-model branch: replay the history prefix into a
				// fresh object (what GemStone/POSTGRES-style models force).
				versions, err := tx.Versions(p.OID())
				if err != nil {
					return err
				}
				var prefix []VID
				for _, v := range versions {
					prefix = append(prefix, v)
					if v == mid.VID() {
						break
					}
				}
				first, err := tx.ReadVersionRaw(p.OID(), prefix[0])
				if err != nil {
					return err
				}
				no, _, err := tx.CreateRaw(ty.ID(), first)
				if err != nil {
					return err
				}
				for _, v := range prefix[1:] {
					content, err := tx.ReadVersionRaw(p.OID(), v)
					if err != nil {
						return err
					}
					nv, err := tx.NewVersion(no)
					if err != nil {
						return err
					}
					if err := tx.UpdateVersionRaw(no, nv, content); err != nil {
						return err
					}
				}
			} else {
				if _, err := mid.NewVersion(tx); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE4AlternativeTree(b *testing.B)         { benchmarkE4(b, false) }
func BenchmarkE4AlternativeLinearReplay(b *testing.B) { benchmarkE4(b, true) }

// --- E5: percolation fan-out (measured through the trigger bus) ---

func benchmarkE5(b *testing.B, parts int, percolate bool) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(5))
	var part Ptr[blob]
	var composite Ptr[blob]
	err := db.Update(func(tx *Tx) error {
		var err error
		composite, err = ty.Create(tx, &blob{Data: []byte("composite")})
		if err != nil {
			return err
		}
		for i := 0; i < parts; i++ {
			q, err := ty.Create(tx, &blob{Data: payload(rng, 256)})
			if err != nil {
				return err
			}
			if i == 0 {
				part = q
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if percolate {
		db.OnObject(part.OID(), On(EvNewVersion), false, func(ev Event) {
			tx := db.TxOf(ev)
			if tx == nil {
				panic(ErrTxDone)
			}
			if _, err := tx.NewVersion(composite.OID()); err != nil {
				panic(err)
			}
		})
	}
	b.ResetTimer()
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := part.NewVersion(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE5EditWithoutPercolation(b *testing.B) { benchmarkE5(b, 16, false) }
func BenchmarkE5EditWithPercolation(b *testing.B)    { benchmarkE5(b, 16, true) }

// --- E6: configuration resolution ---

func benchmarkE6(b *testing.B, static bool) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(6))
	const k = 16
	err := db.Update(func(tx *Tx) error {
		var bindings []Binding
		for i := 0; i < k; i++ {
			p, err := ty.Create(tx, &blob{Data: payload(rng, 256)})
			if err != nil {
				return err
			}
			for v := 0; v < 8; v++ {
				if _, err := p.NewVersion(tx); err != nil {
					return err
				}
			}
			bd := Binding{Slot: fmt.Sprintf("s%02d", i), Obj: p.OID()}
			if static {
				pin, err := p.Pin(tx)
				if err != nil {
					return err
				}
				bd.VID = pin.VID()
			}
			bindings = append(bindings, bd)
		}
		return tx.SaveConfig("cfg", bindings)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := tx.ResolveConfig("cfg"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE6ResolveStatic16(b *testing.B)  { benchmarkE6(b, true) }
func BenchmarkE6ResolveDynamic16(b *testing.B) { benchmarkE6(b, false) }

// --- E7: trigger dispatch overhead ---

func benchmarkE7(b *testing.B, subscribers int) {
	db, ty := benchDB(b, nil)
	for i := 0; i < subscribers; i++ {
		db.OnType(ty.ID(), On(EvNewVersion), false, func(Event) {})
	}
	var p Ptr[blob]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: []byte("x")})
		return err
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := p.NewVersion(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE7Triggers0(b *testing.B)   { benchmarkE7(b, 0) }
func BenchmarkE7Triggers16(b *testing.B)  { benchmarkE7(b, 16) }
func BenchmarkE7Triggers256(b *testing.B) { benchmarkE7(b, 256) }

// --- E8: as-of lookups ---

func benchmarkE8(b *testing.B, walk bool, history int) {
	db, ty := benchDB(b, &Options{DeltaTier: true})
	rng := rand.New(rand.NewSource(8))
	var p Ptr[blob]
	var stamps []Stamp
	err := db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: payload(rng, 256)})
		if err != nil {
			return err
		}
		pin, err := p.Pin(tx)
		if err != nil {
			return err
		}
		info, err := pin.Info(tx)
		if err != nil {
			return err
		}
		stamps = append(stamps, info.Stamp)
		for i := 1; i < history; i++ {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			inf, err := nv.Info(tx)
			if err != nil {
				return err
			}
			stamps = append(stamps, inf.Stamp)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			s := stamps[rng.Intn(len(stamps))]
			var ok bool
			var err error
			if walk {
				_, ok, err = tx.AsOfWalk(p.OID(), s)
			} else {
				_, ok, err = tx.AsOf(p.OID(), s)
			}
			if err != nil || !ok {
				return fmt.Errorf("as-of failed: %v %v", ok, err)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE8AsOfIndexed1024(b *testing.B) { benchmarkE8(b, false, 1024) }
func BenchmarkE8AsOfWalk1024(b *testing.B)    { benchmarkE8(b, true, 1024) }

// --- E9: substrate (commit paths, lookups, scans) ---

func BenchmarkE9CommitDurable(b *testing.B) {
	db, err := Open(b.TempDir(), nil) // sync on: real durability cost
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ty, err := RegisterWithCodec[blob](db, "blob", rawBlobCodec{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := ty.Create(tx, &blob{Data: payload(rng, 512)})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9CommitNoSync(b *testing.B) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := ty.Create(tx, &blob{Data: payload(rng, 512)})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9PointLookup(b *testing.B) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(10))
	const n = 2000
	var oids []OID
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			p, err := ty.Create(tx, &blob{Data: payload(rng, 128)})
			if err != nil {
				return err
			}
			oids = append(oids, p.OID())
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err := db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := tx.Latest(oids[i%n]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE9ExtentScan(b *testing.B) {
	db, ty := benchDB(b, nil)
	rng := rand.New(rand.NewSource(11))
	const n = 2000
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := ty.Create(tx, &blob{Data: payload(rng, 128)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err := db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			count := 0
			if err := tx.Extent(ty.ID(), func(OID) (bool, error) {
				count++
				return true, nil
			}); err != nil {
				return err
			}
			if count != n {
				return fmt.Errorf("scan saw %d", count)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// --- E10: anchor-interval ablation ---

func benchmarkE10(b *testing.B, interval int) {
	db, err := Open(b.TempDir(), &Options{DeltaTier: true, AnchorInterval: interval, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ty, err := RegisterWithCodec[blob](db, "blob", rawBlobCodec{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	content := payload(rng, 8192)
	var p Ptr[blob]
	err = db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: content})
		if err != nil {
			return err
		}
		cur := content
		for i := 0; i < 64; i++ {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			cur = append([]byte(nil), cur...)
			cur[rng.Intn(len(cur))] ^= 0x5A
			if err := nv.Set(tx, &blob{Data: cur}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8192)
	b.ResetTimer()
	err = db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := p.Deref(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE10TipReadMaxChain4(b *testing.B)  { benchmarkE10(b, 4) }
func BenchmarkE10TipReadMaxChain16(b *testing.B) { benchmarkE10(b, 16) }
func BenchmarkE10TipReadMaxChain64(b *testing.B) { benchmarkE10(b, 64) }

// --- E13: small-commit cost ---

// BenchmarkE13CommitInstrumented measures one small commit with NoSync,
// so that what is timed is the engine's CPU — the instrumentation's atomic
// adds and clock reads included — and not fsync latency. It was one arm of
// the E13 pair; the other went with the option to run uninstrumented
// (EXPERIMENTS.md E13 has the last comparison).
func BenchmarkE13CommitInstrumented(b *testing.B) {
	db, ty := benchDB(b, &Options{NoSync: true, CheckpointBytes: -1})
	rng := rand.New(rand.NewSource(13))
	var p Ptr[blob]
	if err := db.Update(func(tx *Tx) error {
		var err error
		p, err = ty.Create(tx, &blob{Data: payload(rng, 128)})
		return err
	}); err != nil {
		b.Fatal(err)
	}
	content := payload(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := tx.UpdateLatestRaw(p.OID(), content)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
