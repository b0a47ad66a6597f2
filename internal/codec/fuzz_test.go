package codec

// Native fuzz targets for the codec primitives every on-disk structure
// is framed with. Two properties carry the whole storage stack:
// arbitrary bytes fed to a Reader must never panic (the poisoned-error
// model must hold: after the first failure every further read is a
// cheap zero-valued no-op), and anything the Append* encoders produce
// must read back exactly.

import (
	"bytes"
	"testing"
)

// FuzzReaderOps drives a Reader over arbitrary bytes with an op
// sequence also derived from those bytes, checking the poisoned-error
// invariants: the offset never runs past the buffer or backwards, and
// once Err() is set it stays set.
func FuzzReaderOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	// A varint with a continuation bit running off the end, and a
	// Bytes32 length word far larger than the buffer.
	f.Add([]byte{0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x07, 0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add(AppendBool(AppendF64(AppendString32(AppendBytes32(AppendVarint(AppendUVarint(
		AppendU64(AppendU32(AppendU16(AppendU8(nil, 1), 2), 3), 4), 5), -6),
		[]byte("blob")), "str"), 7.5), true))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		ops := append([]byte(nil), data...) // ops double as the input
		for i := 0; i < len(ops)+8; i++ {
			var op byte
			if i < len(ops) {
				op = ops[i]
			}
			prevOff := r.Offset()
			prevErr := r.Err()
			switch op % 11 {
			case 0:
				r.U8()
			case 1:
				r.U16()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.UVarint()
			case 5:
				r.Varint()
			case 6:
				r.Bytes32()
			case 7:
				r.String32()
			case 8:
				r.F64()
			case 9:
				r.Bool()
			case 10:
				r.Raw(int(op) % 5)
			}
			if off := r.Offset(); off < prevOff || off > len(data) {
				t.Fatalf("op %d: offset %d out of range (prev %d, len %d)", op%11, off, prevOff, len(data))
			}
			if prevErr != nil && r.Err() == nil {
				t.Fatalf("op %d: poisoned reader healed itself", op%11)
			}
			if prevErr != nil && r.Offset() != prevOff {
				t.Fatalf("op %d: poisoned reader advanced %d -> %d", op%11, prevOff, r.Offset())
			}
		}
		if r.Remaining() < 0 {
			t.Fatalf("negative remaining: %d", r.Remaining())
		}
	})
}

// FuzzRoundTrip appends one of every field type behind a caller-owned
// prefix and reads it back: the prefix must survive untouched, and the
// decoded values and the consumed length must match exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint32(0), uint64(0), int64(0), []byte(nil), "", 0.0, false)
	f.Add(uint8(255), uint16(65535), uint32(1<<31), uint64(1)<<63, int64(-1),
		[]byte("payload"), "名前", 3.14159, true)
	f.Add(uint8(1), uint16(300), uint32(70000), uint64(1<<42), int64(-1<<40),
		bytes.Repeat([]byte{0xab}, 100), "x", -0.0, false)

	f.Fuzz(func(t *testing.T, a uint8, b uint16, c uint32, d uint64, e int64, blob []byte, s string, g float64, h bool) {
		prefix := []byte(s) // any bytes the encoders do not own
		buf := append([]byte(nil), prefix...)
		buf = appendAll(buf, a, b, c, d, e, blob, s, g, h)
		buf = append(buf, blob...)
		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("appender clobbered caller prefix")
		}

		r := NewReader(buf[len(prefix):])
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
		if got := r.Raw(len(blob)); !bytes.Equal(got, blob) {
			t.Fatalf("Raw: %q != %q", got, blob)
		}
		if r.Err() != nil {
			t.Fatalf("round trip poisoned the reader: %v", r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}
