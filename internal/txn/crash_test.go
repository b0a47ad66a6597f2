package txn

// Crash-injection tests: the WAL is truncated or corrupted at arbitrary
// points (simulating a crash mid-write or a torn sector) and the
// database must (a) open successfully, (b) contain a *prefix* of the
// committed transactions — all-or-nothing per transaction, and never a
// later transaction without an earlier one.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/codec"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// buildCommits creates a database with nTxns transactions, each
// inserting one record "txn-<i>", without checkpointing, and returns
// the directory. The manager is abandoned (simulated crash) so all
// state is exactly what reached the files.
func buildCommits(t *testing.T, nTxns int) (string, []oid.RID) {
	t.Helper()
	dir := t.TempDir()
	m, err := Create(dir, Options{
		Storage:         storage.Options{PageSize: 512},
		CheckpointBytes: -1, // keep everything in the WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	var rids []oid.RID
	for i := 0; i < nTxns; i++ {
		if err := writeH(m, func(h *storage.Heap) error {
			rid, err := h.Insert([]byte(fmt.Sprintf("txn-%d", i)))
			rids = append(rids, rid)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: crash.
	return dir, rids
}

// copyDir clones a database directory so each injection starts from the
// same crashed state.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// countSurvivors opens the (possibly damaged) database and verifies the
// prefix property, returning how many transactions survived.
func countSurvivors(t *testing.T, dir string, rids []oid.RID) int {
	t.Helper()
	m, err := Open(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatalf("open after injection: %v", err)
	}
	defer m.Close()
	survivors := 0
	broken := false
	for i, rid := range rids {
		var got []byte
		err := readH(m, func(h *storage.Heap) error {
			var err error
			got, err = h.Read(rid)
			return err
		})
		if err == nil && string(got) == fmt.Sprintf("txn-%d", i) {
			if broken {
				t.Fatalf("txn %d survived but an earlier one did not (prefix violated)", i)
			}
			survivors++
		} else {
			broken = true
		}
	}
	return survivors
}

func TestWALTruncationFuzz(t *testing.T) {
	const nTxns = 25
	src, rids := buildCommits(t, nTxns)
	walPath := filepath.Join(src, WALFileName)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	walSize := st.Size()
	rng := rand.New(rand.NewSource(1234))

	// Full WAL: everything must survive.
	if got := countSurvivors(t, copyDir(t, src), rids); got != nTxns {
		t.Fatalf("undamaged recovery lost work: %d of %d", got, nTxns)
	}

	for trial := 0; trial < 15; trial++ {
		cut := int64(rng.Intn(int(walSize)))
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, WALFileName), cut); err != nil {
			t.Fatal(err)
		}
		got := countSurvivors(t, dir, rids)
		if got > nTxns {
			t.Fatalf("trial %d: more survivors than txns", trial)
		}
		// Monotone sanity: cutting at 0 gives 0 survivors; the undamaged
		// log gives all. Intermediate cuts give some prefix (checked
		// inside countSurvivors).
		t.Logf("trial %d: cut at %d/%d bytes → %d/%d txns", trial, cut, walSize, got, nTxns)
	}
}

func TestWALBitflipFuzz(t *testing.T) {
	const nTxns = 15
	src, rids := buildCommits(t, nTxns)
	walPath := filepath.Join(src, WALFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		dir := copyDir(t, src)
		damaged := append([]byte(nil), raw...)
		// Flip a byte somewhere after the header.
		at := 8 + rng.Intn(len(damaged)-8)
		damaged[at] ^= 0xA5
		if err := os.WriteFile(filepath.Join(dir, WALFileName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		// The CRC framing must stop replay at the damage; everything
		// before it survives, nothing after does, and open never fails.
		got := countSurvivors(t, dir, rids)
		t.Logf("trial %d: flipped byte %d → %d/%d txns", trial, at, got, nTxns)
	}
}

func TestDataFileCorruptionIsDetected(t *testing.T) {
	dir := t.TempDir()
	m, err := Create(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	var rid oid.RID
	if err := writeH(m, func(h *storage.Heap) error {
		var err error
		rid, err = h.Insert([]byte("precious data"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // checkpoint: page reaches the data file
		t.Fatal(err)
	}
	// Corrupt one byte of the record's page on disk.
	dataPath := filepath.Join(dir, DataFileName)
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[int(rid.Page)*512+200] ^= 0xFF
	if err := os.WriteFile(dataPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	readErr := readH(m2, func(h2 *storage.Heap) error {
		_, err := h2.Read(rid)
		return err
	})
	if readErr == nil {
		t.Fatal("silent corruption: damaged page read succeeded")
	}
}

func TestRecoveryIgnoresUncommittedAndAborted(t *testing.T) {
	// Hand-craft a WAL containing: committed T1, abandoned T2 (no commit
	// record — a crash mid-commit), T3 whose abort record arrives after
	// committed T4. Recovery must apply T1 and T4 only.
	dir := t.TempDir()
	m, err := Create(dir, Options{Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var r1, r4 oid.RID
	if err := writeH(m, func(h *storage.Heap) error { // T1
		var err error
		r1, err = h.Insert([]byte("committed-1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// T2: fabricate a torn commit by writing begin+image without commit
	// directly into the log. T3: begin+image, aborted below.
	fakePage := make([]byte, 512)
	fakePage[4] = 2 // slotted type tag so the image is plausible
	logRun(t, m.log, func(fr *wal.Frames) {
		fr.Begin(901)
		fr.PageImage(901, 99, fakePage)
		fr.Begin(902)
		fr.PageImage(902, 98, fakePage)
	})
	if err := m.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := writeH(m, func(h *storage.Heap) error { // T4
		var err error
		r4, err = h.Insert([]byte("committed-4"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// T3's abort record. Nothing writes abort records any more, but the
	// format defines them and recovery honours them, so frame one by hand
	// — [len][crc32c][type, uvarint tx] — at the end of the crashed file.
	abort := codec.AppendUVarint([]byte{wal.RecAbort}, 902)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(abort)))
	frame = binary.BigEndian.AppendUint32(frame, codec.Checksum(abort))
	f, err := os.OpenFile(filepath.Join(dir, WALFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, abort...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Crash; reopen.
	m2, err := Open(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Stats().RecoveredTxns; got != 2 {
		t.Fatalf("recovered %d txns, want 2 (T1 and T4)", got)
	}
	if err := readH(m2, func(h2 *storage.Heap) error {
		for rid, want := range map[oid.RID]string{r1: "committed-1", r4: "committed-4"} {
			got, err := h2.Read(rid)
			if err != nil || string(got) != want {
				t.Fatalf("%v: %q %v", rid, got, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The fabricated pages 98/99 must not exist (file shorter than 98).
	if n := m2.Store().NumPages(); n > 90 {
		t.Fatalf("uncommitted page images applied: %d pages", n)
	}
}

func TestNoSyncCrashLosesTailButStaysConsistent(t *testing.T) {
	// With NoSync, a crash may lose the newest commits (they were only
	// buffered), but the database must open cleanly and contain a prefix.
	dir := t.TempDir()
	m, err := Create(dir, Options{
		Storage: storage.Options{PageSize: 512},
		NoSync:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rids []oid.RID
	for i := 0; i < 10; i++ {
		if err := writeH(m, func(h *storage.Heap) error {
			rid, err := h.Insert([]byte{byte(i)})
			rids = append(rids, rid)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash. Reopen and just demand consistency (anything from 0..10
	// survivors is legal under NoSync; prefix property still required).
	survivors := countSurvivors(t, dir, rids)
	t.Logf("NoSync crash: %d/10 commits survived", survivors)
}

// TestRecoveryReplaysAcrossCheckpointMarker: earlier versions logged a
// RecCheckpoint just before each checkpoint's reset, so a crash between
// the two leaves one in the log, with committed transactions after it
// once the log grows again. Recovery must replay what is on both sides.
func TestRecoveryReplaysAcrossCheckpointMarker(t *testing.T) {
	dir := t.TempDir()
	m, err := Create(dir, Options{Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(payload string) (rid oid.RID) {
		t.Helper()
		if err := writeH(m, func(h *storage.Heap) error {
			var err error
			rid, err = h.Insert([]byte(payload))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return rid
	}
	r1 := insert("committed-1")
	mark := int(m.log.End())
	r2 := insert("committed-2")
	// Crash, then splice a marker — [len][crc32c][type, uvarint tx 0] —
	// between the two transactions' runs.
	rec := codec.AppendUVarint([]byte{wal.RecCheckpoint}, 0)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	frame = binary.BigEndian.AppendUint32(frame, codec.Checksum(rec))
	path := filepath.Join(dir, WALFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spliced := append(append(append([]byte(nil), b[:mark]...), frame...), rec...)
	if err := os.WriteFile(path, append(spliced, b[mark:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Stats().RecoveredTxns; got != 2 {
		t.Fatalf("recovered %d txns, want 2", got)
	}
	if err := readH(m2, func(h *storage.Heap) error {
		for rid, want := range map[oid.RID]string{r1: "committed-1", r2: "committed-2"} {
			if got, err := h.Read(rid); err != nil || string(got) != want {
				return fmt.Errorf("%v: %q %v", rid, got, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
