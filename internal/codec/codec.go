// Package codec provides the low-level binary encoding helpers shared by
// every on-disk structure in the store: append-style encoders and a
// bounds-checked reader over byte slices, varints, length-prefixed byte
// strings, and CRC framing. Keeping these in one place means every page, WAL record, and
// version record round-trips through the same audited primitives.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// ErrShortBuffer is returned when a decode runs off the end of its input.
var ErrShortBuffer = errors.New("codec: short buffer")

// ErrOverflow is returned when a varint is malformed or a length prefix
// exceeds sane bounds.
var ErrOverflow = errors.New("codec: varint overflow")

// castagnoli is the CRC-32C table used for all on-disk checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Append-style encoders: each function appends one field's wire
// encoding to a caller-owned buffer and returns it, so every encoder —
// WAL frame staging included — writes directly into its destination.
// TestAppendGolden pins the bytes.

// AppendU8 appends a single byte to b.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends v in big-endian order.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends v in big-endian order.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v in big-endian order.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendUVarint appends v in unsigned LEB128-style varint encoding.
func AppendUVarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBytes32 appends a uvarint length prefix followed by p.
func AppendBytes32(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString32 appends a length-prefixed string.
func AppendString32(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendF64 appends an IEEE-754 float64 in big-endian order.
func AppendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends a 1-byte boolean.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// MaxBlob bounds length prefixes accepted by Reader to guard against
// corrupt inputs allocating unbounded memory.
const MaxBlob = 1 << 30

// Reader consumes binary data from a byte slice with bounds checking.
// After any method returns an error the Reader is poisoned and every
// later call returns the same error, so callers may decode a whole
// structure and check the error once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset returns the number of consumed bytes.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// UVarint consumes an unsigned varint.
func (r *Reader) UVarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Varint consumes a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Bytes32 consumes a length-prefixed byte string. The returned slice
// aliases the Reader's input.
func (r *Reader) Bytes32() []byte {
	n := r.UVarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBlob {
		r.fail(fmt.Errorf("%w: blob length %d", ErrOverflow, n))
		return nil
	}
	return r.take(int(n))
}

// String32 consumes a length-prefixed string.
func (r *Reader) String32() string {
	return string(r.Bytes32())
}

// Raw consumes exactly n bytes with no framing. The returned slice
// aliases the Reader's input.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// F64 consumes a big-endian IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool consumes a 1-byte boolean; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Expect fails the reader with err if cond is false. It lets decoders
// express structural invariants inline.
func (r *Reader) Expect(cond bool, err error) {
	if r.err == nil && !cond {
		r.fail(err)
	}
}
