package codec

// Fuzz target for the append-style encoders (satellite of the zero-copy
// staging refactor). Two properties are enforced: the Append* family
// must produce byte-for-byte the same wire encoding as the Writer
// family (the WAL stages frames through Append* while the rest of the
// tree still encodes through Writer, so any divergence would be an
// on-disk format fork), and the appended bytes must round-trip
// through the existing Reader.

import (
	"bytes"
	"testing"
)

func FuzzAppendEncoder(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint32(0), uint64(0), int64(0), []byte(nil), "", 0.0, false, []byte(nil))
	f.Add(uint8(255), uint16(65535), uint32(1<<31), uint64(1)<<63, int64(-1),
		[]byte("payload"), "名前", 3.14159, true, []byte{0, 1, 2})
	f.Add(uint8(1), uint16(300), uint32(70000), uint64(1<<42), int64(-1<<40),
		bytes.Repeat([]byte{0xab}, 100), "x", -0.0, false, bytes.Repeat([]byte{0x42}, 33))
	f.Add(uint8(7), uint16(1), uint32(127), uint64(128), int64(63), []byte("a"), "b", 1e-300, true, []byte("prefix"))

	f.Fuzz(func(t *testing.T, a uint8, b uint16, c uint32, d uint64, e int64, blob []byte, s string, g float64, h bool, prefix []byte) {
		// The Append* chain, seeded with an arbitrary caller-owned prefix
		// that must survive untouched.
		buf := append([]byte(nil), prefix...)
		buf = AppendU8(buf, a)
		buf = AppendU16(buf, b)
		buf = AppendU32(buf, c)
		buf = AppendU64(buf, d)
		buf = AppendUVarint(buf, d)
		buf = AppendVarint(buf, e)
		buf = AppendBytes32(buf, blob)
		buf = AppendString32(buf, s)
		buf = AppendF64(buf, g)
		buf = AppendBool(buf, h)

		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("appender clobbered caller prefix")
		}
		enc := buf[len(prefix):]

		// Byte-for-byte equivalence with the Writer family.
		w := NewWriter(0)
		w.U8(a).U16(b).U32(c).U64(d).UVarint(d).Varint(e).Bytes32(blob).String32(s).F64(g).Bool(h)
		if !bytes.Equal(enc, w.Bytes()) {
			t.Fatalf("Append* encoding diverges from Writer:\n  append: %x\n  writer: %x", enc, w.Bytes())
		}

		// Round trip through the existing decoder.
		r := NewReader(enc)
		if got := r.U8(); got != a {
			t.Fatalf("U8: %v != %v", got, a)
		}
		if got := r.U16(); got != b {
			t.Fatalf("U16: %v != %v", got, b)
		}
		if got := r.U32(); got != c {
			t.Fatalf("U32: %v != %v", got, c)
		}
		if got := r.U64(); got != d {
			t.Fatalf("U64: %v != %v", got, d)
		}
		if got := r.UVarint(); got != d {
			t.Fatalf("UVarint: %v != %v", got, d)
		}
		if got := r.Varint(); got != e {
			t.Fatalf("Varint: %v != %v", got, e)
		}
		if got := r.Bytes32(); !bytes.Equal(got, blob) {
			t.Fatalf("Bytes32: %q != %q", got, blob)
		}
		if got := r.String32(); got != s {
			t.Fatalf("String32: %q != %q", got, s)
		}
		if got := r.F64(); got != g && !(got != got && g != g) { // NaN-safe
			t.Fatalf("F64: %v != %v", got, g)
		}
		if got := r.Bool(); got != h {
			t.Fatalf("Bool: %v != %v", got, h)
		}
		if r.Err() != nil {
			t.Fatalf("round trip poisoned the reader: %v", r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}
