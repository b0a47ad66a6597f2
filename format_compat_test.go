package ode

// On-disk format compatibility across the write-path consolidation
// (PR 14) and the page-delta log records (PR 19), shown with bytes
// rather than by inspection.
//
// testdata/format holds crashed database directories. Two were written
// by the commit BEFORE PR 14 (this file, copied into a checkout of it and
// run with -args -write-format-fixtures=<dir>, is the generator), when
// every touched page was logged as a full image:
//
//   - legacy-unrecovered: the pre-shard directory (what Shards: 1 wrote
//     then: data.ode + wal.ode and nothing else), power cut with
//     committed transactions still only in the WAL;
//   - sharded-indoubt: two shards, power cut inside a cross-shard
//     commit at the exact point where both shards hold a durable 2PC
//     prepare, the coordinator log holds the decision, and neither
//     shard has its local commit record — recovery must finish it.
//
// The third was written by PR 19's own code, so that the next format
// change has a delta-bearing log to stay compatible with:
//
//   - sharded-delta-unrecovered: two shards, the script run to its end
//     and the power cut then, every commit since the checkpoint still
//     only in the WALs — first-touch page images, page deltas on top of
//     them, and a completed two-phase commit.
//
// Forward: every directory opens under the current code, recovers to the
// state its manifest records and passes CheckIntegrity. Backward: the
// current code, run through the same script to the same cut, writes
// those same data files byte for byte and logs holding the same
// transactions over the same pages in the same order; since PR 19 a page
// record may be a delta where the fixture has an image, so the logs are
// held to what they are for: recovering today's and recovering the
// fixture's leaves byte-identical page files. One
// shard is now the N=1 case of the sharded layout, so for the pre-shard
// fixture the comparison is by role, not by name: today's data.000 and
// wal.000 against its data.ode and wal.ode, with the two files it never
// had (shards.ode, coord.ode) holding nothing but their headers. That
// is the proof that one shard of the one layout IS the pre-shard engine
// on disk, and why adopting such a directory rewrites none of it.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/wal"
)

const (
	shardsHeaderLen   = 12 // shards.ode: magic, version, creation count
	formatFixtureRoot = "testdata/format"
	formatDBDir       = "/db"
	formatManifest    = "expect.json"
)

var formatLayouts = []struct {
	name   string
	shards int
	// inDoubt cuts the power inside the final transaction, where it is
	// prepared on every shard, decided, and locally uncommitted; otherwise
	// the script runs to its end and the power goes then.
	inDoubt bool
	// was maps a file this code writes to the fixture file in the same
	// role, where the names differ; "" marks a file the fixture's writer
	// did not have, which must then be empty of everything but its header.
	was map[string]string
}{
	{"legacy-unrecovered", 1, false, map[string]string{"data.000": "data.ode", "wal.000": "wal.ode", "shards.ode": "", "coord.ode": ""}},
	{"sharded-indoubt", 2, true, nil},
	{"sharded-delta-unrecovered", 2, false, nil},
}

// formatObject is one manifest row: what a recovered directory must
// hold for an object.
type formatObject struct {
	OID      uint64 `json:"oid"`
	Latest   string `json:"latest"`
	Versions uint64 `json:"versions"`
}

// formatScript drives the fixed workload against a database on fsys:
// creates, new versions, a checkpoint, post-checkpoint updates that stay
// in the WAL, and a final transaction over two objects (on two shards
// when there are two). beforeFinal, if set, runs just ahead of that
// transaction. It returns the state the directory must recover to — with
// the final transaction applied — and the final transaction's error,
// which is nil unless fsys cut the power under it; any earlier failure
// is fatal.
func formatScript(t *testing.T, fsys faultfs.FS, shards int, beforeFinal func()) ([]formatObject, error) {
	t.Helper()
	db, err := Open(formatDBDir, &Options{Shards: shards, PageSize: 512, CheckpointBytes: -1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	// Never closed: the directory is wanted as a crash leaves it.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tid, err := db.Engine().RegisterType("FormatBlob")
	must(err)
	model := make([]formatObject, 6)
	for i := range model {
		content := fmt.Sprintf("obj-%d-v0", i)
		must(db.Update(func(tx *Tx) error {
			o, _, err := tx.CreateRaw(tid, []byte(content))
			model[i] = formatObject{OID: uint64(o), Latest: content, Versions: 1}
			return err
		}))
	}
	update := func(tx *Tx, i int, content string) error {
		_, err := tx.UpdateLatestRaw(OID(model[i].OID), []byte(content))
		return err
	}
	for i := 0; i < 3; i++ {
		content := fmt.Sprintf("obj-%d-v1", i)
		must(db.Update(func(tx *Tx) error {
			if _, err := tx.NewVersion(OID(model[i].OID)); err != nil {
				return err
			}
			return update(tx, i, content)
		}))
		model[i].Latest, model[i].Versions = content, 2
	}
	must(db.Checkpoint())
	for i := 3; i < 6; i++ {
		content := fmt.Sprintf("obj-%d-after-checkpoint", i)
		must(db.Update(func(tx *Tx) error { return update(tx, i, content) }))
		model[i].Latest = content
	}
	// The final transaction: object 0 and the first object that lives on
	// another shard (object 1 when there is only one shard).
	a, b := 0, 1
	rmap := db.coord.Map()
	for i := range model {
		if rmap.ShardOf(model[i].OID) != rmap.ShardOf(model[a].OID) {
			b = i
			break
		}
	}
	if beforeFinal != nil {
		beforeFinal()
	}
	finalErr := db.Update(func(tx *Tx) error {
		if err := update(tx, a, "final-a"); err != nil {
			return err
		}
		return update(tx, b, "final-b")
	})
	model[a].Latest, model[b].Latest = "final-a", "final-b"
	return model, finalErr
}

// formatImage runs the script for a layout and returns the crashed
// filesystem image with its manifest.
func formatImage(t *testing.T, shards int, inDoubt bool) (*faultfs.Mem, []formatObject) {
	t.Helper()
	if !inDoubt {
		mem := faultfs.NewMem()
		model, err := formatScript(t, mem, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mem.Crash(false), model
	}
	// Find the power cut that leaves the final transaction in doubt: dry
	// run to learn which mutating ops belong to it, then cut after each.
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	var first uint64
	if _, err := formatScript(t, dry, shards, func() { first = dry.Counts().Ops }); err != nil {
		t.Fatal(err)
	}
	for n := first + 1; n <= dry.Counts().Ops; n++ {
		mem := faultfs.NewMem()
		model, err := formatScript(t, faultfs.NewInjector(mem, faultfs.Plan{PowerCutAfterOps: n}), shards, nil)
		if err == nil {
			break // the cut landed after the ack
		}
		if img := mem.Crash(false); formatInDoubt(t, img.Clone(), shards) {
			return img, model
		}
	}
	t.Fatal("no power cut leaves the final transaction prepared on every shard, decided, and locally uncommitted")
	return nil, nil
}

// formatRecords scans one log file of an image.
func formatRecords(t *testing.T, fsys faultfs.FS, name string) []wal.Record {
	t.Helper()
	log, err := wal.OpenFS(fsys, filepath.Join(formatDBDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var recs []wal.Record
	if err := log.Scan(func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// formatInDoubt reports whether the image's coordinator log decides a
// transaction that every shard has prepared and none has committed.
func formatInDoubt(t *testing.T, img *faultfs.Mem, shards int) bool {
	t.Helper()
	decided := map[uint64]bool{}
	for _, r := range formatRecords(t, img, "coord.ode") {
		if r.Type == wal.RecCommit {
			decided[uint64(r.Tx)] = true
		}
	}
	for s := 0; s < shards; s++ {
		inDoubt := false
		prepared := map[uint64]bool{} // local tx -> prepared under a decided gtid
		for _, r := range formatRecords(t, img, fmt.Sprintf("wal.%03d", s)) {
			switch r.Type {
			case wal.RecPrepare:
				prepared[uint64(r.Tx)] = decided[r.GTID]
				inDoubt = inDoubt || decided[r.GTID]
			case wal.RecCommit:
				if prepared[uint64(r.Tx)] {
					inDoubt = false
				}
			}
		}
		if !inDoubt {
			return false
		}
	}
	return true
}

var writeFormatFixtures = flag.String("write-format-fixtures", "", "directory TestFormatWriteFixtures writes the format fixtures to")

// TestFormatWriteFixtures regenerates testdata/format. It is the
// generator, meant to run at the commit whose format is the reference;
// without -write-format-fixtures it does nothing.
func TestFormatWriteFixtures(t *testing.T) {
	out := *writeFormatFixtures
	if out == "" {
		t.Skip("pass -args -write-format-fixtures=<dir> to write the fixtures")
	}
	for _, l := range formatLayouts {
		img, model := formatImage(t, l.shards, l.inDoubt)
		dir := filepath.Join(out, l.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		names, err := img.ReadDir(formatDBDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			b, err := img.ReadFile(filepath.Join(formatDBDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		manifest, err := json.MarshalIndent(model, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, formatManifest), append(manifest, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// formatFixture loads a checked-in directory: its files and manifest.
func formatFixture(t *testing.T, name string) (map[string][]byte, []formatObject) {
	t.Helper()
	dir := filepath.Join(formatFixtureRoot, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	var model []formatObject
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == formatManifest {
			if err := json.Unmarshal(b, &model); err != nil {
				t.Fatal(err)
			}
			continue
		}
		files[e.Name()] = b
	}
	return files, model
}

// formatCheck holds db to a manifest: every object's latest content and
// version count, and a clean CheckIntegrity.
func formatCheck(t *testing.T, db *DB, model []formatObject) {
	t.Helper()
	if err := db.View(func(tx *Tx) error {
		for _, want := range model {
			got, _, err := tx.ReadLatestRaw(OID(want.OID))
			if err != nil {
				return fmt.Errorf("object %d: %w", want.OID, err)
			}
			if string(got) != want.Latest {
				return fmt.Errorf("object %d: latest %q, want %q", want.OID, got, want.Latest)
			}
			n, err := tx.VersionCount(OID(want.OID))
			if err != nil {
				return err
			}
			if n != want.Versions {
				return fmt.Errorf("object %d: %d versions, want %d", want.OID, n, want.Versions)
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

// formatFixtureDir copies a checked-in directory into a fresh temp dir.
func formatFixtureDir(t *testing.T, name string) (string, []formatObject) {
	t.Helper()
	files, model := formatFixture(t, name)
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, model
}

// formatMem loads a directory's files into an in-memory filesystem,
// durably: what a machine holding that directory boots with.
func formatMem(t *testing.T, files map[string][]byte) *faultfs.Mem {
	t.Helper()
	mem := faultfs.NewMem()
	for name, b := range files {
		f, err := mem.OpenFile(filepath.Join(formatDBDir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return mem
}

// formatRecover opens the crashed directory on mem — recovering it —
// closes it, and returns its data files as recovery left them.
func formatRecover(t *testing.T, mem *faultfs.Mem) map[string][]byte {
	t.Helper()
	db, err := Open(formatDBDir, &Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().RecoveredTxns == 0 {
		t.Fatal("nothing recovered: the image's WAL was not unrecovered")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.ReadDir(formatDBDir)
	if err != nil {
		t.Fatal(err)
	}
	pages := map[string][]byte{}
	for _, name := range names {
		if !strings.HasPrefix(name, "data.") {
			continue
		}
		if pages[name], err = mem.ReadFile(filepath.Join(formatDBDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

func TestFormatOpensEarlierDirectories(t *testing.T) {
	for _, l := range formatLayouts {
		t.Run(l.name, func(t *testing.T) {
			dir, model := formatFixtureDir(t, l.name)
			check := func(db *DB) {
				t.Helper()
				formatCheck(t, db, model)
			}
			db, err := Open(dir, nil) // take whatever is there
			if err != nil {
				t.Fatal(err)
			}
			if db.Shards() != l.shards {
				t.Fatalf("opened with %d shards, want %d", db.Shards(), l.shards)
			}
			if db.Stats().RecoveredTxns == 0 {
				t.Fatal("nothing recovered: the fixture's WAL was not unrecovered")
			}
			check(db)
			// Recovered, it is an ordinary database: writable, closable,
			// reopenable.
			if err := db.Update(func(tx *Tx) error {
				_, err := tx.UpdateLatestRaw(OID(model[0].OID), []byte("after-recovery"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			model[0].Latest = "after-recovery"
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			check(db)
		})
	}
}

// TestFormatDeltaFixtureBearsDeltas keeps the third fixture honest about
// its name: each shard's log holds first-touch images, deltas, and a
// prepare that its own commit record completes.
func TestFormatDeltaFixtureBearsDeltas(t *testing.T) {
	files, _ := formatFixture(t, "sharded-delta-unrecovered")
	ref := formatMem(t, files)
	for _, name := range []string{"wal.000", "wal.001"} {
		kinds := map[uint8]int{}
		for _, r := range formatRecords(t, ref, name) {
			kinds[r.Type]++
		}
		if kinds[wal.RecPageImage] == 0 || kinds[wal.RecPageDelta] == 0 || kinds[wal.RecPrepare] != 1 || kinds[wal.RecCommit] < 2 {
			t.Errorf("%s: records by type %v", name, kinds)
		}
	}
}

// formatNormalise sorts each transaction's run of page records by page
// (before PR 14 their order within a run followed map iteration) and
// reduces them to which page they are for: whether a page travels as an
// image or as a delta is the writer's choice since PR 19, and what the
// records add up to is compared by recovering them.
func formatNormalise(recs []wal.Record) {
	for i := range recs {
		if recs[i].Type == wal.RecPageDelta || recs[i].Type == wal.RecPageImage {
			recs[i].Type, recs[i].Data = wal.RecPageImage, nil
		}
	}
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].Type == wal.RecPageImage && recs[j].Tx == recs[i].Tx {
			j++
		}
		if j == i {
			i++
			continue
		}
		run := recs[i:j]
		sort.Slice(run, func(a, b int) bool { return run[a].Page < run[b].Page })
		i = j
	}
}

func TestFormatWritesWhatEarlierCodeWrote(t *testing.T) {
	for _, l := range formatLayouts {
		t.Run(l.name, func(t *testing.T) {
			want, wantModel := formatFixture(t, l.name)
			img, model := formatImage(t, l.shards, l.inDoubt)
			if fmt.Sprint(model) != fmt.Sprint(wantModel) {
				t.Fatalf("manifest differs:\n  got  %v\n  want %v", model, wantModel)
			}
			names, err := img.ReadDir(formatDBDir)
			if err != nil {
				t.Fatal(err)
			}
			matched := 0
			// The fixture's logs, loaded where the scanner can read them.
			ref := formatMem(t, want)
			for _, name := range names {
				got, err := img.ReadFile(filepath.Join(formatDBDir, name))
				if err != nil {
					t.Fatal(err)
				}
				isLog := strings.HasPrefix(name, "wal.") || name == "coord.ode"
				was, renamed := l.was[name]
				if !renamed {
					was = name
				}
				if was == "" {
					bare := shardsHeaderLen
					if isLog {
						bare = wal.HeaderSize
					}
					if len(got) != bare {
						t.Errorf("%s: %d bytes, want the bare %d-byte header (the fixture's writer had no such file)", name, len(got), bare)
					}
					continue
				}
				if _, ok := want[was]; !ok {
					t.Fatalf("wrote %s, which the fixture lacks (as %s)", name, was)
				}
				matched++
				if !isLog {
					if !bytes.Equal(got, want[was]) {
						t.Errorf("%s: %d bytes differ from the fixture's %s (%d)", name, len(got), was, len(want[was]))
					}
					continue
				}
				gotRecs, wantRecs := formatRecords(t, img, name), formatRecords(t, ref, was)
				formatNormalise(gotRecs)
				formatNormalise(wantRecs)
				if len(gotRecs) != len(wantRecs) {
					t.Fatalf("%s: %d records, fixture has %d", name, len(gotRecs), len(wantRecs))
				}
				for i, g := range gotRecs {
					w := wantRecs[i]
					if g.Type != w.Type || g.Tx != w.Tx || g.Page != w.Page || g.GTID != w.GTID || !bytes.Equal(g.Data, w.Data) {
						t.Fatalf("%s record %d: got type %d tx %d page %d, fixture has type %d tx %d page %d (or their payloads differ)",
							name, i, g.Type, g.Tx, g.Page, w.Type, w.Tx, w.Page)
					}
				}
			}
			if matched != len(want) {
				t.Fatalf("wrote files %v, which cover %d of the fixture's %d", names, matched, len(want))
			}
			// The logs, held to what they are for.
			gotPages, wantPages := formatRecover(t, img), formatRecover(t, ref)
			for name, got := range gotPages {
				was, renamed := l.was[name]
				if !renamed {
					was = name
				}
				if !bytes.Equal(got, wantPages[was]) {
					t.Errorf("recovered %s (%d bytes) differs from the fixture's recovered %s (%d)", name, len(got), was, len(wantPages[was]))
				}
			}
			if len(gotPages) != len(wantPages) || len(gotPages) != l.shards {
				t.Fatalf("recovered %d data files, the fixture %d, of %d shards", len(gotPages), len(wantPages), l.shards)
			}
		})
	}
}
