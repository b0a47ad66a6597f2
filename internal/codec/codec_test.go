package codec

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// appendAll encodes one of every field type, in the order the golden
// table and the fuzzers read them back.
func appendAll(buf []byte, a uint8, b uint16, c uint32, d uint64, e int64, blob []byte, s string, g float64, h bool) []byte {
	buf = AppendU8(buf, a)
	buf = AppendU16(buf, b)
	buf = AppendU32(buf, c)
	buf = AppendU64(buf, d)
	buf = AppendUVarint(buf, d)
	buf = AppendVarint(buf, e)
	buf = AppendBytes32(buf, blob)
	buf = AppendString32(buf, s)
	buf = AppendF64(buf, g)
	return AppendBool(buf, h)
}

// TestAppendGolden pins the Append* encoders to the wire format: each
// row is a FuzzAppendEncoder seed as the deleted Writer type encoded it
// at the last commit that had both families (U8, U16, U32, U64, UVarint,
// Varint, Bytes32, String32, F64, Bool, in that order). Every record the
// store has ever written is made of these; a differing byte here is an
// on-disk format change.
func TestAppendGolden(t *testing.T) {
	for i, row := range []struct {
		a    uint8
		b    uint16
		c    uint32
		d    uint64
		e    int64
		blob []byte
		s    string
		g    float64
		h    bool
		want string
	}{
		{0, 0, 0, 0, 0, nil, "", 0.0, false,
			"00000000000000000000000000000000000000000000000000000000"},
		{255, 65535, 1 << 31, 1 << 63, -1, []byte("payload"), "名前", 3.14159, true,
			"ffffff8000000080000000000000008080808080808080800101077061796c6f616406e5908de5898d400921f9f01b866e01"},
		{1, 300, 70000, 1 << 42, -1 << 40, bytes.Repeat([]byte{0xab}, 100), "x", 0.0, false,
			"01012c00011170000004000000000080808080808001ffffffffff3f64" + strings.Repeat("ab", 100) + "0178000000000000000000"},
		{7, 1, 127, 128, 63, []byte("a"), "b", 1e-300, true,
			"0700010000007f000000000000008080017e0161016201a56e1fc2f8f35901"},
	} {
		got := appendAll(nil, row.a, row.b, row.c, row.d, row.e, row.blob, row.s, row.g, row.h)
		if hex.EncodeToString(got) != row.want {
			t.Errorf("row %d:\n  got  %x\n  want %s", i, got, row.want)
		}
	}
}

func TestAppendReaderRoundtrip(t *testing.T) {
	w := AppendU64(AppendU32(AppendU16(AppendU8(nil, 0xAB), 0xCDEF), 0xDEADBEEF), 0x0102030405060708)
	w = AppendVarint(AppendUVarint(w, 300), -12345)
	w = AppendString32(AppendBytes32(w, []byte("hello")), "world")
	w = AppendBool(AppendBool(AppendF64(w, math.Pi), true), false)
	w = append(w, 9, 9)

	r := NewReader(w)
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if got := r.U16(); got != 0xCDEF {
		t.Fatalf("U16 = %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.UVarint(); got != 300 {
		t.Fatalf("UVarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Bytes32 = %q", got)
	}
	if got := r.String32(); got != "world" {
		t.Fatalf("String32 = %q", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool roundtrip wrong")
	}
	if got := r.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("Raw = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("want ErrShortBuffer, got %v", r.Err())
	}
	// Poisoned reader keeps returning the same error.
	_ = r.U8()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("poisoning lost: %v", r.Err())
	}
}

func TestReaderEmptyVarint(t *testing.T) {
	r := NewReader(nil)
	_ = r.UVarint()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("want ErrShortBuffer, got %v", r.Err())
	}
}

func TestReaderVarintOverflow(t *testing.T) {
	// 11 continuation bytes overflow a uvarint.
	bad := bytes.Repeat([]byte{0xFF}, 11)
	r := NewReader(bad)
	_ = r.UVarint()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", r.Err())
	}
}

func TestBytes32Oversized(t *testing.T) {
	r := NewReader(AppendUVarint(nil, uint64(MaxBlob)+1))
	_ = r.Bytes32()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", r.Err())
	}
}

func TestExpect(t *testing.T) {
	sentinel := errors.New("bad structure")
	r := NewReader([]byte{1})
	r.Expect(true, sentinel)
	if r.Err() != nil {
		t.Fatal("Expect(true) must not fail")
	}
	r.Expect(false, sentinel)
	if !errors.Is(r.Err(), sentinel) {
		t.Fatalf("want sentinel, got %v", r.Err())
	}
}

func TestChecksumStability(t *testing.T) {
	a := Checksum([]byte("ode"))
	b := Checksum([]byte("ode"))
	c := Checksum([]byte("odf"))
	if a != b {
		t.Fatal("checksum not deterministic")
	}
	if a == c {
		t.Fatal("checksum collision on trivially different input")
	}
}

func TestQuickVarintRoundtrip(t *testing.T) {
	f := func(u uint64, v int64) bool {
		r := NewReader(AppendVarint(AppendUVarint(nil, u), v))
		return r.UVarint() == u && r.Varint() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytesRoundtrip(t *testing.T) {
	f := func(b1, b2 []byte) bool {
		r := NewReader(AppendBytes32(AppendBytes32(nil, b1), b2))
		g1 := append([]byte(nil), r.Bytes32()...)
		g2 := append([]byte(nil), r.Bytes32()...)
		return r.Err() == nil && bytes.Equal(g1, b1) && bytes.Equal(g2, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
