package wal

// Native fuzz targets for the WAL record scanner. The contract under
// attack: whatever bytes a crash (or a hostile disk) leaves after the
// header, opening the log must never panic, must accept only CRC-framed
// prefixes, must be idempotent (re-opening the truncated file finds the
// same end), and — the group-commit case — a torn or garbage tail
// appended after a batch of valid records must surface as clean
// end-of-log without losing or inventing any record before it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/oid"
)

const fuzzLogPath = "/fuzz.wal"

// writeRaw creates path on fsys holding exactly content.
func writeRaw(t testing.TB, fsys faultfs.FS, path string, content []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// header returns a valid WAL file header.
func header() []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint32(hdr[4:8], version)
	return hdr[:]
}

// FuzzScanEnd feeds arbitrary bytes as the post-header body of a log
// file and opens it. Properties: no panic, the accepted end stays
// within the file, reopening the (truncated) file is a fixed point, and
// scanning the accepted prefix never panics.
func FuzzScanEnd(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// A valid one-record body as a structured seed.
	{
		mem := faultfs.NewMem()
		l, err := OpenFS(mem, fuzzLogPath)
		if err != nil {
			f.Fatal(err)
		}
		stage(f, l, func(fr *Frames) { fr.Begin(7) })
		if err := l.Sync(); err != nil {
			f.Fatal(err)
		}
		l.Close()
		fl, _ := mem.OpenFile(fuzzLogPath, os.O_RDONLY, 0)
		size, _ := fl.Size()
		body := make([]byte, size-headerSize)
		fl.ReadAt(body, headerSize)
		fl.Close()
		f.Add(body)
		f.Add(append(body, 0xff, 0x00, 0x13, 0x37))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		mem := faultfs.NewMem()
		writeRaw(t, mem, fuzzLogPath, append(header(), body...))
		l, err := OpenFS(mem, fuzzLogPath)
		if err != nil {
			return // a rejected log is fine; panics are not
		}
		end := l.End()
		if end < headerSize || int64(end) > int64(headerSize+len(body)) {
			t.Fatalf("accepted end %v outside file [%d,%d]", end, headerSize, headerSize+len(body))
		}
		// Scanning the accepted prefix must not panic. It may error on a
		// CRC-valid frame whose payload is not a known record (scanEnd
		// validates framing, not semantics), but it must never read past
		// the end it declared.
		_ = l.Scan(func(rec Record) error {
			if rec.LSN >= end {
				t.Fatalf("record at %v beyond declared end %v", rec.LSN, end)
			}
			return nil
		})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Idempotence: the truncated file must reopen to the same end.
		l2, err := OpenFS(mem, fuzzLogPath)
		if err != nil {
			t.Fatalf("reopen of truncated log failed: %v", err)
		}
		if l2.End() != end {
			t.Fatalf("reopen moved end: %v -> %v", end, l2.End())
		}
		l2.Close()
	})
}

// FuzzBatchTail builds a real log — half its transactions spliced one
// record at a time, half as one staged run, so the bytes reach the file
// in differently sized writes — then splices an arbitrary tail after it
// and reopens. The valid prefix
// must survive byte-for-byte: same records, same order, no phantoms
// before the old end.
func FuzzBatchTail(f *testing.F) {
	f.Add([]byte("\x02page-image-payload"), []byte("torn"))
	f.Add([]byte("\x05"+string(make([]byte, 64))), []byte{0xff, 0x00, 0x01, 0xfe})
	f.Add([]byte{0x01}, []byte{})

	f.Fuzz(func(t *testing.T, seed, tail []byte) {
		nTxns := 1
		var page []byte
		if len(seed) > 0 {
			nTxns = int(seed[0])%4 + 1
			page = seed[1:]
			if len(page) > 4096 {
				page = page[:4096]
			}
		}
		mem := faultfs.NewMem()
		l, err := OpenFS(mem, fuzzLogPath)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nTxns; i++ {
			tx := oid.TxID(i + 1)
			if i%2 == 0 {
				stage(t, l, func(fr *Frames) {
					fr.Begin(tx)
					fr.PageImage(tx, oid.PageID(i), page)
					fr.Commit(tx)
				})
			} else {
				stage(t, l, func(fr *Frames) { fr.Begin(tx) })
				stage(t, l, func(fr *Frames) { fr.PageImage(tx, oid.PageID(i), page) })
				stage(t, l, func(fr *Frames) { fr.Commit(tx) })
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		validEnd := l.End()
		var want []Record
		if err := l.Scan(func(rec Record) error {
			rec.Data = append([]byte(nil), rec.Data...)
			want = append(want, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// The crash: arbitrary bytes land after the valid prefix.
		fl, err := mem.OpenFile(fuzzLogPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.WriteAt(tail, int64(validEnd)); err != nil {
			t.Fatal(err)
		}
		fl.Close()

		l2, err := OpenFS(mem, fuzzLogPath)
		if err != nil {
			t.Fatalf("reopen after tail: %v", err)
		}
		defer l2.Close()
		if l2.End() < validEnd {
			t.Fatalf("tail cost committed records: end %v < valid end %v", l2.End(), validEnd)
		}
		var got []Record
		stop := errors.New("past valid prefix")
		if err := l2.Scan(func(rec Record) error {
			if rec.LSN >= validEnd {
				return stop
			}
			rec.Data = append([]byte(nil), rec.Data...)
			got = append(got, rec)
			return nil
		}); err != nil && !errors.Is(err, stop) {
			t.Fatalf("scan of valid prefix failed: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("valid prefix changed: %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type ||
				got[i].Tx != want[i].Tx || got[i].Page != want[i].Page ||
				!bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("record %d changed: %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
