package wal

// The page-delta record: what Frames.PageDelta stages, ApplyPageDelta
// must turn back into the after-image; what it refuses to stage must be
// a delta no smaller than the page; and whatever bytes claim to be a
// delta, applying them never panics and never writes outside the page.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"ode/internal/oid"
)

// goldenDelta is PageDelta(goldenTx, goldenPage, …) for a 32-byte page
// whose bytes 3–4 and 25–31 changed: two ranges, the second running to
// the page's end. It pins the record's framing as goldenRun pins the
// others'.
const goldenDelta = "0000001a54820b9e08959aef3a00deadbe" +
	"00030002a1a2" +
	"00190007b1b2b3b4b5b6b7"

func TestPageDeltaGoldenBytes(t *testing.T) {
	before := make([]byte, 32)
	after := make([]byte, 32)
	copy(after[3:], []byte{0xa1, 0xa2})
	copy(after[25:], []byte{0xb1, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7})
	var fr Frames
	if !fr.PageDelta(goldenTx, goldenPage, before, after) {
		t.Fatal("a 13-byte delta of a 32-byte page was refused")
	}
	if got := hex.EncodeToString(fr.buf); got != goldenDelta {
		t.Fatalf("page-delta record changed on-disk format:\n  got  %s\n  want %s", got, goldenDelta)
	}
	// And it scans back as what it was staged from.
	l, _ := tempLog(t)
	if _, err := l.AppendFrames(&fr); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := l.Scan(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecPageDelta || recs[0].Tx != goldenTx || recs[0].Page != goldenPage {
		t.Fatalf("scanned %+v", recs)
	}
	page := append([]byte(nil), before...)
	if err := ApplyPageDelta(page, recs[0].Data); err != nil || !bytes.Equal(page, after) {
		t.Fatalf("apply: %v; page %x, want %x", err, page, after)
	}
}

// editPage mutates page in place the way the B+tree and the heap do:
// memmoves of cells within the page, overwrites of short fields, fills.
func editPage(r *rand.Rand, page []byte) {
	n := len(page)
	for e := r.Intn(6); e >= 0; e-- {
		switch r.Intn(4) {
		case 0: // shift a run of cells
			l := 1 + r.Intn(n/2)
			copy(page[r.Intn(n-l+1):], page[r.Intn(n-l+1):][:l])
		case 1: // overwrite a header field
			binary.BigEndian.PutUint16(page[r.Intn(n-1):], uint16(r.Uint32()))
		case 2: // write a record
			l := 1 + r.Intn(n/3)
			r.Read(page[r.Intn(n-l+1):][:l])
		case 3: // clear a freed range
			l := 1 + r.Intn(n/4)
			clear(page[r.Intn(n-l+1):][:l])
		}
	}
}

// TestPageDeltaRoundTrip is the property apply(diff(a, b), a) == b over
// random in-place edits, at page sizes with and without a tail shorter
// than a word and shorter than the diff's skip block; a refused delta
// must really have been no smaller than the page.
func TestPageDeltaRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var fr Frames
	staged, refused := 0, 0
	for _, size := range []int{512, 4096, 32768, 100, 13, 8} {
		for trial := 0; trial < 400; trial++ {
			before := make([]byte, size)
			if trial%3 > 0 {
				r.Read(before)
			}
			after := append([]byte(nil), before...)
			if trial%7 > 0 { // every seventh page is touched and left unchanged
				editPage(r, after)
			}
			keep := append([]byte(nil), before...)
			fr.Reset()
			if !fr.PageDelta(1, 2, before, after) {
				refused++
				if fr.Len() != 0 || fr.Records() != 0 {
					t.Fatalf("a refused delta left %d bytes, %d records staged", fr.Len(), fr.Records())
				}
				if bound := deltaBound(before, after); bound < size {
					t.Fatalf("size %d: refused a delta that needs at most %d bytes", size, bound)
				}
				continue
			}
			staged++
			if !bytes.Equal(before, keep) {
				t.Fatal("PageDelta modified the before-image")
			}
			rec, err := decode(0, fr.buf[8:])
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Data) >= size {
				t.Fatalf("size %d: staged a delta of %d bytes", size, len(rec.Data))
			}
			if err := ApplyPageDelta(before, rec.Data); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("size %d trial %d: apply(diff(a, b), a) != b", size, trial)
			}
		}
	}
	if staged == 0 || refused == 0 {
		t.Fatalf("staged %d, refused %d: one arm never ran", staged, refused)
	}
	// Images of different lengths are never a delta.
	if fr.Reset(); fr.PageDelta(1, 2, make([]byte, 512), make([]byte, 1024)) {
		t.Fatal("staged a delta between pages of different sizes")
	}
}

// deltaBound is an upper bound on the ranges PageDelta stages: a gap of
// 15 unchanged bytes holds a wholly unchanged word at any alignment, so
// a range never spans one; each stretch of changes between such gaps
// costs at most its span plus one range header (splitting it further
// drops at least a word per header added).
func deltaBound(before, after []byte) int {
	bound, first, last := 0, -1, -1
	for i := range after {
		if before[i] == after[i] {
			continue
		}
		if first >= 0 && i-last > 15 {
			bound += last - first + 1 + 4
			first = -1
		}
		if first < 0 {
			first = i
		}
		last = i
	}
	if first >= 0 {
		bound += last - first + 1 + 4
	}
	return bound
}

func TestApplyPageDeltaRejects(t *testing.T) {
	rng := func(off, n uint16, data ...byte) []byte {
		b := binary.BigEndian.AppendUint16(nil, off)
		return append(binary.BigEndian.AppendUint16(b, n), data...)
	}
	for name, delta := range map[string][]byte{
		"offset past the page":      rng(64, 1, 0xff),
		"range runs off the page":   rng(60, 8, 1, 2, 3, 4, 5, 6, 7, 8),
		"length beyond the record":  rng(0, 9, 1, 2, 3),
		"truncated range header":    {0, 1, 0},
		"second range out of range": append(rng(0, 1, 7), rng(65535, 65535)...),
	} {
		page := make([]byte, 64)
		if err := ApplyPageDelta(page, delta); err == nil {
			t.Errorf("%s: applied without error", name)
		}
	}
	page := make([]byte, 64)
	if err := ApplyPageDelta(page, nil); err != nil {
		t.Fatalf("the empty delta (a page touched and left unchanged): %v", err)
	}
	if err := ApplyPageDelta(page, rng(63, 1, 9)); err != nil || page[63] != 9 {
		t.Fatalf("a range ending at the page's last byte: %v", err)
	}
}

// FuzzPageDelta attacks both directions. Forward: any two images of one
// length either stage a delta that applies back to the after-image, or
// are refused. Backward: any bytes framed as a page-delta record scan
// back intact, and applying them — the crash-recovery path — never
// panics, never grows or shrinks the page, and on error is reported, so
// recovery can stop instead of writing a guess.
func FuzzPageDelta(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("the quick brown cat jumps over the lazy dog"), []byte{0, 4, 0, 2, 'a', 'b'})
	f.Add(make([]byte, 64), make([]byte, 64), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1}, []byte{2}, []byte{0, 0, 0})
	f.Add(bytes.Repeat([]byte{7}, 600), append(bytes.Repeat([]byte{7}, 599), 8), []byte{})
	f.Fuzz(func(t *testing.T, before, after, raw []byte) {
		if len(after) > len(before) {
			after = after[:len(before)]
		}
		before = before[:len(after)]
		var fr Frames
		if fr.PageDelta(3, 5, before, after) {
			rec, err := decode(0, fr.buf[8:])
			if err != nil {
				t.Fatal(err)
			}
			page := append([]byte(nil), before...)
			if err := ApplyPageDelta(page, rec.Data); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(page, after) {
				t.Fatal("apply(diff(a, b), a) != b")
			}
		} else if fr.Len() != 0 {
			t.Fatal("a refused delta left bytes staged")
		}

		// raw as a record some other writer (or a bug) put in the log.
		fr.Reset()
		fr.record(RecPageDelta, 3, append(binary.BigEndian.AppendUint32(nil, 5), raw...))
		rec, err := decode(0, fr.buf[8:])
		if err != nil {
			t.Fatal(err)
		}
		if rec.Page != oid.PageID(5) || !bytes.Equal(rec.Data, raw) {
			t.Fatalf("record scanned back as page %d, %d bytes", rec.Page, len(rec.Data))
		}
		page := append([]byte(nil), before...)
		err = ApplyPageDelta(page, raw)
		if len(page) != len(before) {
			t.Fatal("apply resized the page")
		}
		if err == nil {
			// A well-formed delta is idempotent: ranges carry absolute bytes.
			again := append([]byte(nil), page...)
			if err := ApplyPageDelta(again, raw); err != nil || !bytes.Equal(again, page) {
				t.Fatalf("second apply: %v", err)
			}
		}
	})
}
