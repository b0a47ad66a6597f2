package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"ode/internal/faultfs"
)

// scanTx returns the transaction ids of the records a log holds.
func scanTx(t *testing.T, l *Log) []uint64 {
	t.Helper()
	var txs []uint64
	if err := l.Scan(func(r Record) error {
		txs = append(txs, uint64(r.Tx))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return txs
}

// TestSegmentSwitchAndRenew walks a log through two switches: the new
// segment takes the appends, the returned old one keeps what came
// before and can be synced, and once renewed it is the segment after
// next. Each file's header names its generation, and a reopen reads it.
func TestSegmentSwitchAndRenew(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := OpenFS(mem, "/wal.000")
	if err != nil {
		t.Fatal(err)
	}
	if l.Gen() != 0 {
		t.Fatalf("fresh log generation %d, want 0", l.Gen())
	}
	stage(t, l, func(fr *Frames) { fr.Begin(1); fr.Commit(1) })
	next, err := OpenFS(mem, "/wal.000.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Switch(next); err == nil {
		t.Fatal("switched to a segment of the same generation")
	}
	if err := next.Renew(l.Gen() + 1); err != nil {
		t.Fatal(err)
	}
	old, err := l.Switch(next)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != HeaderSize || l.Gen() != 1 || old.Gen() != 0 {
		t.Fatalf("after the switch: current %d bytes gen %d, old gen %d", l.Size(), l.Gen(), old.Gen())
	}
	stage(t, l, func(fr *Frames) { fr.Begin(2); fr.Commit(2) })
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := scanTx(t, old); len(got) != 2 || got[0] != 1 {
		t.Fatalf("old segment holds txs %v, want 1 1", got)
	}
	if got := scanTx(t, l); len(got) != 2 || got[0] != 2 {
		t.Fatalf("current segment holds txs %v, want 2 2", got)
	}

	// Crash now: both files come back with their generations.
	img := mem.Crash(false)
	for path, want := range map[string]uint16{"/wal.000": 0, "/wal.000.1": 1} {
		r, err := OpenFS(img, path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Gen() != want || r.Size() == HeaderSize {
			t.Fatalf("%s reopened at generation %d with %d bytes, want generation %d and records", path, r.Gen(), r.Size(), want)
		}
		r.Close()
	}

	// Retire the old segment as the one after the current, and go on in it.
	if err := old.Renew(old.Gen() + 2); err != nil {
		t.Fatal(err)
	}
	if old.Size() != HeaderSize || len(scanTx(t, old)) != 0 {
		t.Fatal("a renewed segment holds records")
	}
	prev, err := l.Switch(old)
	if err != nil {
		t.Fatal(err)
	}
	if l.Gen() != 2 || prev.Gen() != 1 {
		t.Fatalf("second switch: current gen %d, old gen %d", l.Gen(), prev.Gen())
	}
	stage(t, l, func(fr *Frames) { fr.Begin(3); fr.Commit(3) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := scanTx(t, l); len(got) != 2 || got[0] != 3 {
		t.Fatalf("third segment holds txs %v", got)
	}
	prev.Close()
	l.Close()
}

// TestHeaderGenerationAndVersion pins the header layout: a file written
// before segments (u32 version 1) is generation 0, the generation is the
// u16 before the version, and a version other than 1 is refused whatever
// the generation.
func TestHeaderGenerationAndVersion(t *testing.T) {
	mem := faultfs.NewMem()
	write := func(path string, word uint32) {
		f, err := mem.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [headerSize]byte
		binary.BigEndian.PutUint32(hdr[0:4], magic)
		binary.BigEndian.PutUint32(hdr[4:8], word)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			t.Fatal(err)
		}
	}
	write("/old", 1)
	write("/gen7", 7<<16|1)
	write("/v2", 7<<16|2)
	for path, want := range map[string]uint16{"/old": 0, "/gen7": 7} {
		l, err := OpenFS(mem, path)
		if err != nil {
			t.Fatal(err)
		}
		if l.Gen() != want {
			t.Fatalf("%s: generation %d, want %d", path, l.Gen(), want)
		}
		l.Close()
	}
	if _, err := OpenFS(mem, "/v2"); !errors.Is(err, ErrBadLog) {
		t.Fatalf("version 2 header: %v, want ErrBadLog", err)
	}
}
