package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ode"
	"ode/internal/policy"
)

// Scale shrinks experiments for quick runs (tests) or full runs
// (cmd/odebench, EXPERIMENTS.md).
type Scale struct {
	// Factor divides iteration counts; 1 = full size.
	Factor int
	// Smoke further trims matrix dimensions (shard counts, ABBA
	// windows) in experiments that have them; `odebench -scale ci`
	// sets it for the in-CI correctness pass.
	Smoke bool
}

// Full is the EXPERIMENTS.md scale; Quick keeps CI fast; CI is the
// smoke mode `make check` runs under -race.
var (
	Full  = Scale{Factor: 1}
	Quick = Scale{Factor: 10}
	CI    = Scale{Factor: 20, Smoke: true}
)

func (s Scale) n(full int) int {
	v := full / s.Factor
	if v < 2 {
		v = 2
	}
	return v
}

// Blob is the payload type every experiment stores.
type Blob struct{ Data []byte }

// rawCodec avoids gob overhead in experiments that measure storage
// costs.
type rawCodec struct{}

func (rawCodec) Marshal(b *Blob) ([]byte, error) { return b.Data, nil }
func (rawCodec) Unmarshal(d []byte) (*Blob, error) {
	return &Blob{Data: append([]byte(nil), d...)}, nil
}

func openBench(dir string, opts *ode.Options) (*ode.DB, *ode.Type[Blob], error) {
	if opts == nil {
		opts = &ode.Options{}
	}
	opts.NoSync = true // experiments isolate CPU/structure costs
	db, err := ode.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	ty, err := ode.RegisterWithCodec[Blob](db, "Blob", rawCodec{})
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, ty, nil
}

func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// E1 — version orthogonality: unversioned objects pay nothing.
// Three modes over the same op counts: plain in-place updates on
// unversioned objects; the same after the object gained one version;
// and one newversion per update (full versioning).
func E1(root string, s Scale) (*Table, error) {
	const objSize = 1024
	nObjects := s.n(200)
	nUpdates := s.n(50)

	t := &Table{
		Title:   "E1 — Version orthogonality: cost before vs after versioning",
		Note:    fmt.Sprintf("%d objects × %d in-place updates of %d B payloads (NoSync). The paper's claim: objects that never call newversion pay nothing for the versioning machinery.", nObjects, nUpdates, objSize),
		Headers: []string{"mode", "update mean", "update p99", "db size", "versions/object"},
	}
	for _, mode := range []string{"unversioned", "versioned-once", "version-per-update"} {
		dir := filepath.Join(root, "e1-"+mode)
		db, ty, err := openBench(dir, nil)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(1))
		var ptrs []ode.Ptr[Blob]
		err = db.Update(func(tx *ode.Tx) error {
			for i := 0; i < nObjects; i++ {
				p, err := ty.Create(tx, &Blob{Data: Payload(rng, objSize, 0.5)})
				if err != nil {
					return err
				}
				if mode == "versioned-once" {
					if _, err := p.NewVersion(tx); err != nil {
						return err
					}
				}
				ptrs = append(ptrs, p)
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		var tm Timer
		for u := 0; u < nUpdates; u++ {
			err := db.Update(func(tx *ode.Tx) error {
				for _, p := range ptrs {
					content := Payload(rng, objSize, 0.5)
					tm.Time(func() {
						if mode == "version-per-update" {
							nv, err := p.NewVersion(tx)
							if err == nil {
								err = nv.Set(tx, &Blob{Data: content})
							}
							if err != nil {
								panic(err)
							}
						} else {
							if err := p.Set(tx, &Blob{Data: content}); err != nil {
								panic(err)
							}
						}
					})
				}
				return nil
			})
			if err != nil {
				db.Close()
				return nil, err
			}
		}
		var perObj uint64
		db.View(func(tx *ode.Tx) error {
			perObj, _ = ptrs[0].VersionCount(tx)
			return nil
		})
		if err := db.Close(); err != nil {
			return nil, err
		}
		t.AddRow(mode, Ns(tm.Mean()), Ns(tm.P99()), Bytes(dirSize(dir)), fmt.Sprintf("%d", perObj))
	}
	return t, nil
}

// E2 — generic vs specific dereference. The paper's design makes an oid
// bind to the latest version with a single object-table probe — no
// "generic object header" hop as in ORION/IRIS. We measure a raw
// specific deref, the generic deref, and a simulated header-hop scheme
// (one extra object dereference on the path).
func E2(root string, s Scale) (*Table, error) {
	const objSize = 512
	nObjects := s.n(500)
	nVersions := 8
	probes := s.n(20000)

	dir := filepath.Join(root, "e2")
	db, ty, err := openBench(dir, nil)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(2))
	var ptrs []ode.Ptr[Blob]
	var pinned []ode.VPtr[Blob]
	// headerObjs simulate ORION-style generic headers: an extra object
	// whose payload names the target version; a generic deref in that
	// scheme reads the header first.
	var headerObjs []ode.Ptr[Blob]
	err = db.Update(func(tx *ode.Tx) error {
		for i := 0; i < nObjects; i++ {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, objSize, 0.5)})
			if err != nil {
				return err
			}
			for v := 0; v < nVersions-1; v++ {
				if _, err := p.NewVersion(tx); err != nil {
					return err
				}
			}
			pin, err := p.Pin(tx)
			if err != nil {
				return err
			}
			h, err := ty.Create(tx, &Blob{Data: []byte(pin.String())})
			if err != nil {
				return err
			}
			ptrs = append(ptrs, p)
			pinned = append(pinned, pin)
			headerObjs = append(headerObjs, h)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "E2 — Dereference cost: generic (latest) vs specific vs header-hop baseline",
		Note:    fmt.Sprintf("%d objects × %d versions, %d B payloads, %d random derefs each (warm cache).", nObjects, nVersions, objSize, probes),
		Headers: []string{"reference kind", "mean", "p99"},
	}
	measure := func(name string, fn func(tx *ode.Tx, i int) error) error {
		var tm Timer
		err := db.View(func(tx *ode.Tx) error {
			for k := 0; k < probes; k++ {
				i := rng.Intn(nObjects)
				var err error
				tm.Time(func() { err = fn(tx, i) })
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.AddRow(name, Ns(tm.Mean()), Ns(tm.P99()))
		return nil
	}
	if err := measure("specific (vid)", func(tx *ode.Tx, i int) error {
		_, err := pinned[i].Deref(tx)
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("generic (oid → latest)", func(tx *ode.Tx, i int) error {
		_, err := ptrs[i].Deref(tx)
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("generic via header object (ORION-style)", func(tx *ode.Tx, i int) error {
		if _, err := headerObjs[i].Deref(tx); err != nil {
			return err
		}
		_, err := ptrs[i].Deref(tx)
		return err
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// E3 — delta tier vs full copies: space and materialisation latency
// across chain lengths and object sizes.
func E3(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E3 — Delta storage: space and tip-read latency vs chain length",
		Note:    "Each version applies 2 point edits of 16 B to its parent. The delta tier keeps the latest full and demotes older versions, anchoring every 16 links (the default AnchorInterval), so the tip read is one full payload by construction. Space is the whole database directory.",
		Headers: []string{"object size", "versions", "storage", "db size", "bytes/version", "tip read"},
	}
	sizes := []int{1 << 10, 16 << 10}
	chains := []int{4, 32, 128}
	if s.Factor > 1 {
		chains = []int{4, 16}
	}
	for _, size := range sizes {
		for _, chainLen := range chains {
			for _, pol := range []struct {
				name string
				tier bool
			}{{"full-copy", false}, {"delta-tier", true}} {
				dir := filepath.Join(root, fmt.Sprintf("e3-%d-%d-%s", size, chainLen, pol.name))
				db, ty, err := openBench(dir, &ode.Options{DeltaTier: pol.tier})
				if err != nil {
					return nil, err
				}
				rng := rand.New(rand.NewSource(3))
				content := Payload(rng, size, 0.3)
				var p ode.Ptr[Blob]
				err = db.Update(func(tx *ode.Tx) error {
					var err error
					p, err = ty.Create(tx, &Blob{Data: content})
					if err != nil {
						return err
					}
					cur := content
					for i := 0; i < chainLen; i++ {
						nv, err := p.NewVersion(tx)
						if err != nil {
							return err
						}
						cur = Edit(rng, cur, 2, 16)
						if err := nv.Set(tx, &Blob{Data: cur}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					db.Close()
					return nil, err
				}
				if err := db.Checkpoint(); err != nil {
					db.Close()
					return nil, err
				}
				var tm Timer
				err = db.View(func(tx *ode.Tx) error {
					tm.TimeN(s.n(2000), func() {
						if _, err := p.Deref(tx); err != nil {
							panic(err)
						}
					})
					return nil
				})
				if err != nil {
					db.Close()
					return nil, err
				}
				if err := db.Close(); err != nil {
					return nil, err
				}
				sz := dirSize(dir)
				t.AddRow(Bytes(int64(size)), fmt.Sprintf("%d", chainLen+1), pol.name,
					Bytes(sz), Bytes(sz/int64(chainLen+1)), Ns(tm.Mean()))
			}
		}
	}
	return t, nil
}

// E4 — tree versioning vs the linear baseline: cost of starting an
// alternative from a historical version.
func E4(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E4 — Alternatives: derived-from tree vs linear model (GemStone/POSTGRES baseline)",
		Note:    "History of depth d, then one alternative derived from the midpoint version. Tree: newversion(vid), O(1). Linear: fork a new object and replay the history prefix.",
		Headers: []string{"history depth", "model", "branch latency", "extra versions", "extra db bytes"},
	}
	depths := []int{8, 64, 256}
	if s.Factor > 1 {
		depths = []int{8, 32}
	}
	const objSize = 2048
	for _, depth := range depths {
		for _, model := range []string{"tree", "linear"} {
			dir := filepath.Join(root, fmt.Sprintf("e4-%d-%s", depth, model))
			db, ty, err := openBench(dir, &ode.Options{DeltaTier: true})
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(4))
			var p ode.Ptr[Blob]
			var mid ode.VPtr[Blob]
			err = db.Update(func(tx *ode.Tx) error {
				var err error
				cur := Payload(rng, objSize, 0.3)
				p, err = ty.Create(tx, &Blob{Data: cur})
				if err != nil {
					return err
				}
				for i := 0; i < depth; i++ {
					nv, err := p.NewVersion(tx)
					if err != nil {
						return err
					}
					cur = Edit(rng, cur, 2, 16)
					if err := nv.Set(tx, &Blob{Data: cur}); err != nil {
						return err
					}
					if i == depth/2 {
						mid = nv
					}
				}
				return nil
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			if err := db.Checkpoint(); err != nil {
				db.Close()
				return nil, err
			}
			sizeBefore := dirSize(dir)
			versBefore := db.Stats().Versions

			lin := policy.NewLinear(db)
			var tm Timer
			err = db.Update(func(tx *ode.Tx) error {
				var err error
				tm.Time(func() {
					if model == "tree" {
						_, err = mid.NewVersion(tx)
					} else {
						_, _, err = lin.Branch(tx, ty.ID(), p.OID(), mid.VID())
					}
				})
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			if err := db.Checkpoint(); err != nil {
				db.Close()
				return nil, err
			}
			extraV := db.Stats().Versions - versBefore
			extraB := dirSize(dir) - sizeBefore
			if err := db.Close(); err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", depth), model, Ns(tm.Mean()),
				fmt.Sprintf("%d", extraV), Bytes(extraB))
		}
	}
	return t, nil
}

// E5 — small changes, small impact: version counts with and without the
// percolation policy.
func E5(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E5 — Percolation policy: impact of one component edit on an N-part composite design",
		Note:    "A root composite contains N parts (flat). One part gains one new version. Kernel primitives alone touch 1 object; the percolation policy (built on triggers) cascades to the composite — and in the deep variant, up a chain of C composites.",
		Headers: []string{"shape", "percolation", "versions created", "elapsed"},
	}
	type shape struct {
		name  string
		parts int
		depth int // chain of composites above the edited part
	}
	shapes := []shape{
		{"16 parts, 1 composite", 16, 1},
		{"64 parts, 1 composite", 64, 1},
		{"1 part, chain of 32 composites", 1, 32},
	}
	if s.Factor > 1 {
		shapes = shapes[:2]
	}
	for _, sh := range shapes {
		for _, perc := range []bool{false, true} {
			dir := filepath.Join(root, fmt.Sprintf("e5-%s-%v", sanitize(sh.name), perc))
			db, ty, err := openBench(dir, nil)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(5))
			var parts []ode.Ptr[Blob]
			var composites []ode.Ptr[Blob]
			err = db.Update(func(tx *ode.Tx) error {
				for i := 0; i < sh.parts; i++ {
					p, err := ty.Create(tx, &Blob{Data: Payload(rng, 256, 0.5)})
					if err != nil {
						return err
					}
					parts = append(parts, p)
				}
				for i := 0; i < sh.depth; i++ {
					c, err := ty.Create(tx, &Blob{Data: []byte("composite")})
					if err != nil {
						return err
					}
					composites = append(composites, c)
				}
				return nil
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			pc := policy.NewPercolator(db)
			// The first composite contains all parts; composites chain up.
			for _, p := range parts {
				pc.Declare(composites[0].OID(), p.OID())
			}
			for i := 1; i < len(composites); i++ {
				pc.Declare(composites[i].OID(), composites[i-1].OID())
			}
			if perc {
				pc.Enable()
			}
			before := db.Stats().Versions
			var tm Timer
			err = db.Update(func(tx *ode.Tx) error {
				var err error
				tm.Time(func() { _, err = parts[0].NewVersion(tx) })
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			if err := pc.Err(); err != nil {
				db.Close()
				return nil, err
			}
			created := db.Stats().Versions - before
			pc.Disable()
			if err := db.Close(); err != nil {
				return nil, err
			}
			mode := "off (kernel primitives)"
			if perc {
				mode = "on (trigger policy)"
			}
			t.AddRow(sh.name, mode, fmt.Sprintf("%d", created), Ns(tm.Mean()))
		}
	}
	return t, nil
}

// E6 — configurations: static vs dynamic binding resolution cost and
// behaviour after component evolution.
func E6(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E6 — Configurations: static vs dynamic binding",
		Note:    "A configuration over K components, each with 16 versions; components then evolve 1 more version. Static bindings stay on the pinned version (0 drift); dynamic bindings follow the tip (K drift).",
		Headers: []string{"K components", "binding", "resolve mean", "bindings drifted after evolution"},
	}
	ks := []int{4, 16, 64}
	if s.Factor > 1 {
		ks = []int{4, 16}
	}
	for _, k := range ks {
		dir := filepath.Join(root, fmt.Sprintf("e6-%d", k))
		db, ty, err := openBench(dir, nil)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(6))
		var comps []ode.Ptr[Blob]
		var pins []ode.VPtr[Blob]
		err = db.Update(func(tx *ode.Tx) error {
			for i := 0; i < k; i++ {
				p, err := ty.Create(tx, &Blob{Data: Payload(rng, 256, 0.5)})
				if err != nil {
					return err
				}
				for v := 0; v < 15; v++ {
					if _, err := p.NewVersion(tx); err != nil {
						return err
					}
				}
				pin, err := p.Pin(tx)
				if err != nil {
					return err
				}
				comps = append(comps, p)
				pins = append(pins, pin)
			}
			var static, dynamic []ode.Binding
			for i, p := range comps {
				slot := fmt.Sprintf("slot%03d", i)
				static = append(static, ode.Binding{Slot: slot, Obj: p.OID(), VID: pins[i].VID()})
				dynamic = append(dynamic, ode.Binding{Slot: slot, Obj: p.OID()})
			}
			if err := tx.SaveConfig("static", static); err != nil {
				return err
			}
			return tx.SaveConfig("dynamic", dynamic)
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		// Evolve every component once.
		err = db.Update(func(tx *ode.Tx) error {
			for _, p := range comps {
				if _, err := p.NewVersion(tx); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		for _, kind := range []string{"static", "dynamic"} {
			var tm Timer
			drift := 0
			err = db.View(func(tx *ode.Tx) error {
				var rs []ode.Resolved
				tm.TimeN(s.n(2000), func() {
					var err error
					rs, err = tx.ResolveConfig(kind)
					if err != nil {
						panic(err)
					}
				})
				for i, r := range rs {
					if r.VID != pins[i].VID() {
						drift++
					}
				}
				return nil
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", k), kind, Ns(tm.Mean()), fmt.Sprintf("%d/%d", drift, k))
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E7 — trigger dispatch overhead per newversion.
func E7(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E7 — Change-notification policy: trigger dispatch overhead per newversion",
		Note:    "Cost of newversion on one object with S no-op subscribers attached (type-scoped).",
		Headers: []string{"subscribers", "newversion mean", "newversion p99"},
	}
	for _, subs := range []int{0, 1, 16, 256} {
		dir := filepath.Join(root, fmt.Sprintf("e7-%d", subs))
		db, ty, err := openBench(dir, nil)
		if err != nil {
			return nil, err
		}
		for i := 0; i < subs; i++ {
			db.OnType(ty.ID(), ode.On(ode.EvNewVersion), false, func(ode.Event) {})
		}
		var p ode.Ptr[Blob]
		err = db.Update(func(tx *ode.Tx) error {
			var err error
			p, err = ty.Create(tx, &Blob{Data: []byte("x")})
			return err
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		var tm Timer
		err = db.Update(func(tx *ode.Tx) error {
			for i := 0; i < s.n(2000); i++ {
				var err error
				tm.Time(func() { _, err = p.NewVersion(tx) })
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", subs), Ns(tm.Mean()), Ns(tm.P99()))
	}
	return t, nil
}

// E8 — historical access: as-of lookups via the temporal index vs the
// temporal-chain walk.
func E8(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E8 — Historical (as-of) access vs history length",
		Note:    "Random as-of lookups over one object's history: indexed SeekLE on the temporal index vs walking Tprev from the latest (both return the same version).",
		Headers: []string{"history length", "indexed mean", "walk mean", "walk/indexed"},
	}
	lengths := []int{16, 128, 1024}
	if s.Factor > 1 {
		lengths = []int{16, 128}
	}
	for _, n := range lengths {
		dir := filepath.Join(root, fmt.Sprintf("e8-%d", n))
		db, ty, err := openBench(dir, &ode.Options{DeltaTier: true})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(8))
		var p ode.Ptr[Blob]
		var stamps []ode.Stamp
		err = db.Update(func(tx *ode.Tx) error {
			var err error
			p, err = ty.Create(tx, &Blob{Data: Payload(rng, 256, 0.5)})
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
			for i := 1; i < n; i++ {
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
			db.Close()
			return nil, err
		}
		probes := s.n(5000)
		var tmIdx, tmWalk Timer
		err = db.View(func(tx *ode.Tx) error {
			for i := 0; i < probes; i++ {
				stamp := stamps[rng.Intn(len(stamps))]
				var vIdx, vWalk ode.VID
				var ok bool
				var err error
				tmIdx.Time(func() { vIdx, ok, err = tx.AsOf(p.OID(), stamp) })
				if err != nil || !ok {
					return fmt.Errorf("AsOf failed: %v %v", ok, err)
				}
				tmWalk.Time(func() { vWalk, ok, err = tx.AsOfWalk(p.OID(), stamp) })
				if err != nil || !ok {
					return fmt.Errorf("AsOfWalk failed: %v %v", ok, err)
				}
				if vIdx != vWalk {
					return fmt.Errorf("as-of disagreement at %v: %v vs %v", stamp, vIdx, vWalk)
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		ratio := float64(tmWalk.Mean()) / float64(tmIdx.Mean())
		t.AddRow(fmt.Sprintf("%d", n), Ns(tmIdx.Mean()), Ns(tmWalk.Mean()), fmt.Sprintf("%.1f×", ratio))
	}
	return t, nil
}

// E9 — substrate soundness: WAL recovery time vs committed work, and
// extent scan vs point lookups.
func E9(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E9 — Substrate: crash-recovery time vs unchecked-pointed commits; extent scan vs point lookup",
		Note:    "Recovery replays committed page images from the WAL after a simulated crash (no checkpoint, no clean close).",
		Headers: []string{"metric", "parameter", "value"},
	}
	txns := []int{10, 100, 1000}
	if s.Factor > 1 {
		txns = []int{10, 100}
	}
	for _, n := range txns {
		dir := filepath.Join(root, fmt.Sprintf("e9-rec-%d", n))
		// Durable commits here: the crash-recovery experiment needs the
		// WAL on disk (NoSync deliberately sacrifices the newest commits).
		db, err := ode.Open(dir, &ode.Options{CheckpointBytes: -1})
		if err != nil {
			return nil, err
		}
		ty, err := ode.RegisterWithCodec[Blob](db, "Blob", rawCodec{})
		if err != nil {
			db.Close()
			return nil, err
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			if err := db.Update(func(tx *ode.Tx) error {
				_, err := ty.Create(tx, &Blob{Data: Payload(rng, 512, 0.5)})
				return err
			}); err != nil {
				db.Close()
				return nil, err
			}
		}
		walBytes := db.Stats().WALBytes
		// Simulated crash: abandon db (no Close), reopen from disk.
		start := time.Now()
		db2, err := ode.Open(dir, nil)
		if err != nil {
			return nil, err
		}
		recTime := time.Since(start)
		if got := db2.Stats().Objects; got != uint64(n) {
			db2.Close()
			return nil, fmt.Errorf("recovery lost objects: %d of %d", got, n)
		}
		db2.Close()
		t.AddRow("recovery time", fmt.Sprintf("%d txns, WAL %s", n, Bytes(walBytes)), Ns(recTime))
	}
	// Extent scan vs point lookups.
	dir := filepath.Join(root, "e9-scan")
	db, ty, err := openBench(dir, nil)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(10))
	nObjects := s.n(5000)
	var oids []ode.OID
	err = db.Update(func(tx *ode.Tx) error {
		for i := 0; i < nObjects; i++ {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, 128, 0.5)})
			if err != nil {
				return err
			}
			oids = append(oids, p.OID())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tmScan, tmPoint Timer
	err = db.View(func(tx *ode.Tx) error {
		tmScan.TimeN(5, func() {
			n := 0
			if err := tx.Extent(ty.ID(), func(ode.OID) (bool, error) { n++; return true, nil }); err != nil || n != nObjects {
				panic(fmt.Sprintf("scan: %d %v", n, err))
			}
		})
		tmPoint.TimeN(s.n(5000), func() {
			if _, err := tx.Latest(oids[rng.Intn(len(oids))]); err != nil {
				panic(err)
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("extent scan", fmt.Sprintf("%d objects", nObjects), Ns(tmScan.Mean()))
	t.AddRow("point lookup (object table)", "random oid", Ns(tmPoint.Mean()))
	return t, nil
}

// E10 — ablation of the anchor interval (AnchorInterval), the delta
// tier's central tuning knob: longer chains save space but lengthen the
// materialisation path of old versions; an interval of 1 degenerates to
// (near) full copies. The latest is full at every interval.
func E10(root string, s Scale) (*Table, error) {
	t := &Table{
		Title:   "E10 — Ablation: delta anchor interval (AnchorInterval)",
		Note:    "One object, 128 versions of an 8 KiB payload, 2×16 B edits per version, delta tier on. AnchorInterval bounds the number of dependent links below a full anchor; the latest is always full, so the tip read is flat by construction.",
		Headers: []string{"AnchorInterval", "db size", "bytes/version", "tip read", "random version read"},
	}
	nVersions := 128
	if s.Factor > 1 {
		nVersions = 32
	}
	const objSize = 8 << 10
	for _, interval := range []int{1, 4, 16, 64} {
		dir := filepath.Join(root, fmt.Sprintf("e10-%d", interval))
		db, ty, err := openBench(dir, &ode.Options{DeltaTier: true, AnchorInterval: interval})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(10))
		content := Payload(rng, objSize, 0.3)
		var p ode.Ptr[Blob]
		var pins []ode.VPtr[Blob]
		err = db.Update(func(tx *ode.Tx) error {
			var err error
			p, err = ty.Create(tx, &Blob{Data: content})
			if err != nil {
				return err
			}
			pin, err := p.Pin(tx)
			if err != nil {
				return err
			}
			pins = append(pins, pin)
			cur := content
			for i := 1; i < nVersions; i++ {
				nv, err := p.NewVersion(tx)
				if err != nil {
					return err
				}
				cur = Edit(rng, cur, 2, 16)
				if err := nv.Set(tx, &Blob{Data: cur}); err != nil {
					return err
				}
				pins = append(pins, nv)
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Checkpoint(); err != nil {
			db.Close()
			return nil, err
		}
		var tipTm, rndTm Timer
		err = db.View(func(tx *ode.Tx) error {
			tipTm.TimeN(s.n(1000), func() {
				if _, err := p.Deref(tx); err != nil {
					panic(err)
				}
			})
			rndTm.TimeN(s.n(1000), func() {
				if _, err := pins[rng.Intn(len(pins))].Deref(tx); err != nil {
					panic(err)
				}
			})
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		sz := dirSize(dir)
		t.AddRow(fmt.Sprintf("%d", interval), Bytes(sz),
			Bytes(sz/int64(nVersions)), Ns(tipTm.Mean()), Ns(rndTm.Mean()))
	}
	return t, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ',':
			out = append(out, '-')
		}
	}
	return string(out)
}

// Experiment is a named experiment function.
type Experiment struct {
	ID   string
	Name string
	Run  func(root string, s Scale) (*Table, error)
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "version orthogonality", E1},
		{"E2", "generic vs specific dereference", E2},
		{"E3", "delta storage", E3},
		{"E4", "tree vs linear alternatives", E4},
		{"E5", "percolation policy", E5},
		{"E6", "configurations", E6},
		{"E7", "trigger overhead", E7},
		{"E8", "as-of access", E8},
		{"E9", "substrate soundness", E9},
		{"E10", "anchor-interval ablation", E10},
		{"E11", "concurrent snapshot reads", E11},
		{"E12", "group commit throughput", E12},
		{"E14", "shard scaling", E14},
		{"E15", "ycsb versioned workload", E15},
		{"E16", "online rebalance impact", E16},
		{"E17", "delta-compressed version storage", E17},
		{"E18", "hot-path allocations and deref cache", E18},
	}
}
