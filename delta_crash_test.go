package ode_test

// Crash matrix over the delta tier's demotions: a 2-shard store builds
// edit chains (inline demotion on NewVersion), then explicit Compact
// sweeps demote the rest — and the power dies after every mutating I/O
// operation, or every fsync fails, across the whole run. The reopened
// image must pass a full integrity check, materialise every acked
// version bit-for-bit (no version lost, no half-demoted payload
// visible), finish the interrupted compaction (idempotent recovery),
// and keep accepting writes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ode"
	"ode/internal/faultfs"
)

type deltaAcked struct {
	content map[ode.VID][]byte // every acked version's bytes
	owner   map[ode.VID]ode.OID
}

func deltaCrashOpts(fsys faultfs.FS) *ode.Options {
	return &ode.Options{
		PageSize: 512, CheckpointBytes: -1, FS: fsys, Shards: 2,
		DeltaTier: true, AnchorInterval: 4,
	}
}

// crashEdit derives a deterministic small edit of prev.
func crashEdit(rng *rand.Rand, prev []byte) []byte {
	out := make([]byte, len(prev))
	copy(out, prev)
	off := rng.Intn(len(out))
	n := 12
	if off+n > len(out) {
		n = len(out) - off
	}
	rng.Read(out[off : off+n])
	return out
}

// runDeltaWorkload builds demote-heavy state with explicit compaction
// sweeps between write phases. Never closes the DB (the crash does).
func runDeltaWorkload(fsys faultfs.FS) (deltaAcked, error) {
	acked := deltaAcked{content: map[ode.VID][]byte{}, owner: map[ode.VID]ode.OID{}}
	db, err := ode.Open("/vdb", deltaCrashOpts(fsys))
	if err != nil {
		return acked, err
	}
	tid, err := db.Engine().RegisterType("CrashBlob")
	if err != nil {
		return acked, err
	}
	rng := rand.New(rand.NewSource(4242))
	const nObjs, nVers = 4, 6
	objs := make([]ode.OID, 0, nObjs)
	latest := map[ode.OID][]byte{}
	for i := 0; i < nObjs; i++ {
		content := make([]byte, 600)
		rng.Read(content)
		var o ode.OID
		var v ode.VID
		if err := db.Update(func(tx *ode.Tx) error {
			var err error
			o, v, err = tx.CreateRaw(tid, content)
			return err
		}); err != nil {
			return acked, err
		}
		// Record acked state only after the commit fsync succeeded.
		acked.content[v] = append([]byte(nil), content...)
		acked.owner[v] = o
		objs = append(objs, o)
		latest[o] = content
	}
	grow := func(rounds int) error {
		for r := 0; r < rounds; r++ {
			for _, o := range objs {
				content := crashEdit(rng, latest[o])
				var v ode.VID
				if err := db.Update(func(tx *ode.Tx) error {
					var err error
					v, err = tx.NewVersion(o)
					if err != nil {
						return err
					}
					return tx.UpdateVersionRaw(o, v, content)
				}); err != nil {
					return err
				}
				acked.content[v] = append([]byte(nil), content...)
				acked.owner[v] = o
				latest[o] = content
			}
		}
		return nil
	}
	// Phase 1: chains grow (inline demotions commit with each
	// NewVersion). Phase 2: an explicit compaction sweep — THE demotion
	// commits this matrix is about. Phase 3: more edits on demoted
	// chains, then a second sweep.
	if err := grow(nVers); err != nil {
		return acked, err
	}
	if _, err := db.Compact(); err != nil {
		return acked, err
	}
	if err := grow(2); err != nil {
		return acked, err
	}
	if _, err := db.Compact(); err != nil {
		return acked, err
	}
	if err := checkDeltaAcked(db, acked); err != nil {
		return acked, fmt.Errorf("post-compact verify: %w", err)
	}
	return acked, nil
}

// checkDeltaAcked materialises every acked version and compares bytes.
func checkDeltaAcked(db *ode.DB, acked deltaAcked) error {
	return db.View(func(tx *ode.Tx) error {
		for v, want := range acked.content {
			got, err := tx.ReadVersionRaw(acked.owner[v], v)
			if err != nil {
				return fmt.Errorf("read %v: %w", v, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("version %v: content differs after crash (got %d bytes, want %d)", v, len(got), len(want))
			}
		}
		return nil
	})
}

// verifyDeltaImage reopens the crashed image: integrity, acked
// contents, compaction resumability, writability.
func verifyDeltaImage(crashed faultfs.FS, acked deltaAcked) error {
	db, err := ode.Open("/vdb", deltaCrashOpts(crashed))
	if err != nil {
		if len(acked.content) == 0 {
			return nil
		}
		return fmt.Errorf("reopen with %d acked versions: %w", len(acked.content), err)
	}
	defer db.Close()
	if err := db.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity: %w", err)
	}
	if err := checkDeltaAcked(db, acked); err != nil {
		return err
	}
	// An interrupted sweep must simply be runnable again, twice over
	// (idempotence at the fixpoint).
	if _, err := db.Compact(); err != nil {
		return fmt.Errorf("compact after recovery: %w", err)
	}
	st, err := db.Compact()
	if err != nil {
		return fmt.Errorf("second compact after recovery: %w", err)
	}
	if st.Demoted != 0 || st.Promoted != 0 {
		return fmt.Errorf("recovery compaction not idempotent: %+v", st)
	}
	if err := db.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity after compact: %w", err)
	}
	if err := checkDeltaAcked(db, acked); err != nil {
		return fmt.Errorf("after compact: %w", err)
	}
	// Still writable.
	var tid ode.TypeID
	if tid, err = db.Engine().RegisterType("CrashBlob"); err != nil {
		return fmt.Errorf("re-register: %w", err)
	}
	return db.Update(func(tx *ode.Tx) error {
		_, _, err := tx.CreateRaw(tid, []byte("post-crash"))
		return err
	})
}

// TestDeltaCrashMatrixPowerCut cuts power after every mutating I/O
// operation across the build + compact + edit + compact run.
func TestDeltaCrashMatrixPowerCut(t *testing.T) {
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	if _, err := runDeltaWorkload(dry); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	ops := dry.Counts().Ops
	if ops < 60 {
		t.Fatalf("op space suspiciously small: %d", ops)
	}
	step := uint64(1)
	if testing.Short() {
		step = 5
	}
	for n := uint64(1); n <= ops; n += step {
		mem := faultfs.NewMem()
		acked, _ := runDeltaWorkload(faultfs.NewInjector(mem, faultfs.Plan{PowerCutAfterOps: n}))
		if err := verifyDeltaImage(mem.Crash(false), acked); err != nil {
			t.Errorf("powerCutAfter=%d: %v", n, err)
		}
	}
	t.Logf("delta crash matrix: %d power-cut points (step %d)", ops, step)
}

// TestDeltaCrashMatrixFailedSyncs fails every fsync point instead: the
// failing commit (possibly a Compact demotion batch) must surface the
// error and leave a recoverable store.
func TestDeltaCrashMatrixFailedSyncs(t *testing.T) {
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	if _, err := runDeltaWorkload(dry); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	syncs := dry.Counts().Syncs
	if syncs < 10 {
		t.Fatalf("sync space suspiciously small: %d", syncs)
	}
	step := uint64(1)
	if testing.Short() {
		step = 7
	}
	for n := uint64(1); n <= syncs; n += step {
		for _, keep := range []bool{false, true} {
			mem := faultfs.NewMem()
			acked, _ := runDeltaWorkload(faultfs.NewInjector(mem, faultfs.Plan{FailSyncN: n}))
			if err := verifyDeltaImage(mem.Crash(keep), acked); err != nil {
				t.Errorf("failSync=%d keep=%v: %v", n, keep, err)
			}
		}
	}
	t.Logf("delta crash matrix: %d failed-sync points x2 (step %d)", syncs, step)
}

// TestDeltaCompactReadFaults points a transient EIO at every stretch of
// the compaction sweep's read path: the sweep must fail cleanly (no
// partial demotion visible, every acked version still materialises) and
// an immediate retry must finish the job. The build phase runs without
// the delta tier so the whole demotion workload is left for the faulted
// sweep.
func TestDeltaCompactReadFaults(t *testing.T) {
	buildOpts := func(fsys faultfs.FS) *ode.Options {
		// A tiny pool forces the sweep to hit the disk rather than
		// serve every page from cache.
		return &ode.Options{
			PageSize: 512, PoolPages: 8, CheckpointBytes: -1, FS: fsys, Shards: 2,
		}
	}
	sweepOpts := func(fsys faultfs.FS) *ode.Options {
		o := buildOpts(fsys)
		o.DeltaTier = true
		o.AnchorInterval = 4
		return o
	}
	build := func(fsys faultfs.FS) (deltaAcked, error) {
		acked := deltaAcked{content: map[ode.VID][]byte{}, owner: map[ode.VID]ode.OID{}}
		db, err := ode.Open("/vdb", buildOpts(fsys))
		if err != nil {
			return acked, err
		}
		defer db.Close()
		tid, err := db.Engine().RegisterType("CrashBlob")
		if err != nil {
			return acked, err
		}
		rng := rand.New(rand.NewSource(515))
		for i := 0; i < 2; i++ {
			content := make([]byte, 600)
			rng.Read(content)
			var o ode.OID
			if err := db.Update(func(tx *ode.Tx) error {
				var v ode.VID
				var err error
				o, v, err = tx.CreateRaw(tid, content)
				if err != nil {
					return err
				}
				acked.content[v] = append([]byte(nil), content...)
				acked.owner[v] = o
				return nil
			}); err != nil {
				return acked, err
			}
			for j := 0; j < 8; j++ {
				content = crashEdit(rng, content)
				if err := db.Update(func(tx *ode.Tx) error {
					v, err := tx.NewVersion(o)
					if err != nil {
						return err
					}
					acked.content[v] = append([]byte(nil), content...)
					acked.owner[v] = o
					return tx.UpdateVersionRaw(o, v, content)
				}); err != nil {
					return acked, err
				}
			}
		}
		return acked, nil
	}

	// Dry run: how many reads does the image consume up to the sweep,
	// and how many does the sweep itself add?
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	acked, err := build(dry)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ode.Open("/vdb", sweepOpts(dry))
	if err != nil {
		t.Fatal(err)
	}
	r0 := dry.Counts().Reads
	st, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Demoted == 0 {
		t.Fatalf("dry sweep demoted nothing: %+v", st)
	}
	r1 := dry.Counts().Reads
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if r1 == r0 {
		t.Fatalf("sweep performed no reads (pool too large?): %d", r0)
	}

	// Fault every ~Nth read of the sweep window.
	stride := (r1 - r0) / 12
	if stride == 0 {
		stride = 1
	}
	points := 0
	for n := r0 + 1; n <= r1; n += stride {
		points++
		inj := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{FailReadN: n})
		if _, err := build(inj); err != nil {
			t.Fatalf("failRead=%d: build phase touched the fault: %v", n, err)
		}
		db, err := ode.Open("/vdb", sweepOpts(inj))
		if err != nil {
			t.Fatalf("failRead=%d: reopen touched the fault: %v", n, err)
		}
		if _, err := db.Compact(); err == nil {
			t.Fatalf("failRead=%d: sweep succeeded through an injected read fault", n)
		}
		// The fault was transient: everything still materialises and a
		// retried sweep reaches the fixpoint.
		if err := checkDeltaAcked(db, acked); err != nil {
			t.Fatalf("failRead=%d: %v", n, err)
		}
		st, err := db.Compact()
		if err != nil {
			t.Fatalf("failRead=%d: retried sweep: %v", n, err)
		}
		if st.Demoted == 0 {
			t.Fatalf("failRead=%d: retried sweep demoted nothing", n)
		}
		if err := checkDeltaAcked(db, acked); err != nil {
			t.Fatalf("failRead=%d: after retried sweep: %v", n, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("failRead=%d: close: %v", n, err)
		}
	}
	t.Logf("read-fault matrix: %d injection points across a %d-read sweep window", points, r1-r0)
}
