package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/oid"
)

func tempLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.ode")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// stage appends the records build stages to l as one AppendFrames
// splice — the only way records reach a log — and returns the LSN of
// the first.
func stage(t testing.TB, l *Log, build func(fr *Frames)) oid.LSN {
	t.Helper()
	var fr Frames
	build(&fr)
	lsn, err := l.AppendFrames(&fr)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestAppendScanRoundtrip(t *testing.T) {
	l, _ := tempLog(t)
	img := bytes.Repeat([]byte{0xAB}, 256)
	stage(t, l, func(fr *Frames) {
		fr.Begin(1)
		fr.PageImage(1, 7, img)
		fr.Commit(1)
	})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := l.Scan(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Type != RecBegin || recs[0].Tx != 1 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].Type != RecPageImage || recs[1].Page != 7 || !bytes.Equal(recs[1].Data, img) {
		t.Fatalf("rec1 wrong: page=%v len=%d", recs[1].Page, len(recs[1].Data))
	}
	if recs[2].Type != RecCommit {
		t.Fatalf("rec2 = %+v", recs[2])
	}
	// LSNs strictly increase and start after the header.
	if !(recs[0].LSN >= 8 && recs[0].LSN < recs[1].LSN && recs[1].LSN < recs[2].LSN) {
		t.Fatalf("LSNs not increasing: %v %v %v", recs[0].LSN, recs[1].LSN, recs[2].LSN)
	}
}

func TestReopenFindsEnd(t *testing.T) {
	l, path := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(3); fr.Commit(3) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	end := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != end {
		t.Fatalf("end %v != %v", l2.End(), end)
	}
	// New appends continue after the old end.
	if lsn := stage(t, l2, func(fr *Frames) { fr.Begin(4) }); lsn != end {
		t.Fatalf("append lsn %v != old end %v", lsn, end)
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(1); fr.Commit(1) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	goodEnd := l.End()
	stage(t, l, func(fr *Frames) { fr.PageImage(2, 9, bytes.Repeat([]byte{1}, 100)) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Tear the final record: chop 10 bytes off the file.
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-10); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != goodEnd {
		t.Fatalf("torn tail not trimmed: end %v want %v", l2.End(), goodEnd)
	}
	n := 0
	if err := l2.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scan after trim saw %d records", n)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	l, path := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(1) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	goodEnd := l.End()
	stage(t, l, func(fr *Frames) { fr.PageImage(1, 3, bytes.Repeat([]byte{7}, 64)) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a payload byte of the last record (not the frame).
	raw, _ := os.ReadFile(path)
	raw[len(raw)-5] ^= 0x5A
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != goodEnd {
		t.Fatalf("corrupt tail not trimmed: %v want %v", l2.End(), goodEnd)
	}
}

func TestResetAfterCheckpoint(t *testing.T) {
	l, _ := tempLog(t)
	for i := 0; i < 10; i++ {
		stage(t, l, func(fr *Frames) { fr.PageImage(1, oid.PageID(i+1), make([]byte, 128)) })
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Size() <= 8 {
		t.Fatal("log empty before reset")
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 8 {
		t.Fatalf("size after reset = %d", l.Size())
	}
	n := 0
	if err := l.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("records after reset: %d", n)
	}
	// Log is reusable after reset.
	stage(t, l, func(fr *Frames) { fr.Begin(9) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := l.Scan(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("records after reset+append: %d", n)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("this is not a log, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("garbage accepted as WAL")
	}
}

func TestEmptyFileInitialised(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.End() != 8 {
		t.Fatalf("end = %v", l.End())
	}
}

func TestScanVisibleWithoutSync(t *testing.T) {
	// Scan must flush the buffered writer so it sees its own appends.
	l, _ := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(1) })
	n := 0
	if err := l.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("unsynced append invisible to scan: %d", n)
	}
}
