package delta

// FuzzDeltaChain hardens the delta codec against hostile records: Apply
// on corrupted or truncated deltas must return ErrCorrupt-wrapped
// errors, never panic, and never produce output that disagrees with the
// record's declared target length. (Interior bytes of a structurally
// valid INSERT are covered by the storage layer's page checksums, not
// the codec — DESIGN.md §14.)

import (
	"bytes"
	"testing"

	"ode/internal/codec"
)

// declaredLen extracts the self-described target length of a delta.
func declaredLen(d []byte) (uint64, bool) {
	r := codec.NewReader(d)
	n := r.UVarint()
	return n, r.Err() == nil
}

// mustNotPanicApply applies d and enforces the structural contract.
func mustNotPanicApply(t *testing.T, base, d []byte) {
	t.Helper()
	out, err := Apply(base, d)
	if err != nil {
		return
	}
	want, ok := declaredLen(d)
	if !ok {
		t.Fatalf("Apply succeeded on a delta whose length header does not parse (%d bytes)", len(d))
	}
	if uint64(len(out)) != want {
		t.Fatalf("Apply returned %d bytes but the delta declares %d", len(out), want)
	}
}

func FuzzDeltaChain(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("the quick brown cat jumps over the lazy dog"), []byte{})
	f.Add(bytes.Repeat([]byte("abcdefgh"), 64), bytes.Repeat([]byte("abcdefgh"), 63), []byte{1, 0, 0, 0, 0})
	f.Add([]byte{}, []byte("from empty base"), []byte{0x05, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02})
	f.Add([]byte("short"), []byte{}, []byte{0x00, 0x01})
	f.Fuzz(func(t *testing.T, base, target, corrupt []byte) {
		if len(base) > 1<<16 || len(target) > 1<<16 {
			t.Skip()
		}
		// A genuine Encode output must round-trip exactly.
		d := Encode(base, target)
		out, err := Apply(base, d)
		if err != nil {
			t.Fatalf("Apply(Encode) failed: %v", err)
		}
		if !bytes.Equal(out, target) {
			t.Fatalf("round trip: got %d bytes, want %d", len(out), len(target))
		}

		// Arbitrary bytes treated as a delta: error or length-consistent,
		// never a panic.
		mustNotPanicApply(t, base, corrupt)
		mustNotPanicApply(t, target, corrupt)

		// Every truncation of a valid delta is structurally broken and
		// must be rejected (checked exhaustively for small deltas).
		step := 1
		if len(d) > 128 {
			step = len(d) / 64
		}
		for cut := 0; cut < len(d); cut += step {
			if _, err := Apply(base, d[:cut]); err == nil && cut > 0 {
				t.Fatalf("truncated delta (%d of %d bytes) applied cleanly", cut, len(d))
			}
		}

		// Single-byte corruptions keep the structural contract.
		if len(d) > 0 && len(corrupt) > 0 {
			mut := append([]byte(nil), d...)
			for i, c := range corrupt {
				if c == 0 {
					continue
				}
				pos := (i * 131) % len(mut)
				mut[pos] ^= c
				mustNotPanicApply(t, base, mut)
				mut[pos] = d[pos]
			}
		}

		// A chain with an arbitrary final link must error or stay
		// length-consistent (Apply enforces that per link) — and never
		// panic, which is the property under fuzz.
		if out, err := MaterializeChain(base, [][]byte{d, corrupt}); err == nil {
			want, ok := declaredLen(corrupt)
			if !ok || uint64(len(out)) != want {
				t.Fatalf("chain result %d bytes disagrees with final link's declared length", len(out))
			}
		}
	})
}

// TestApplyCopyOverflow pins the uint64 wrap-around fix: a COPY whose
// off+n overflows must be rejected, not panic.
func TestApplyCopyOverflow(t *testing.T) {
	w := codec.AppendUVarint(nil, 1)       // declared target length
	w = codec.AppendU8(w, opCopy)          // COPY ...
	w = codec.AppendUVarint(w, ^uint64(0)) // off = 2^64-1
	w = codec.AppendUVarint(w, 2)          // n = 2: off+n wraps to 1
	if _, err := Apply([]byte("0123456789"), w); err == nil {
		t.Fatal("overflowing copy bounds accepted")
	}
}

// TestApplyOutputBounded pins the early output-length check: a delta
// declaring a small target cannot balloon the output with repeated
// full-base copies before being rejected.
func TestApplyOutputBounded(t *testing.T) {
	base := bytes.Repeat([]byte("x"), 1024)
	w := codec.AppendUVarint(nil, 8) // declares 8 bytes...
	for i := 0; i < 16; i++ {
		w = emitCopy(w, 0, len(base)) // ...but copies the whole base 16 times
	}
	if _, err := Apply(base, w); err == nil {
		t.Fatal("over-long output accepted")
	}
}
