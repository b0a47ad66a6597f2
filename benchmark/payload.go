package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// A payload describes itself — object index, sequence number and a CRC
// of the body — so a read is verified from its bytes alone, with no
// harness lock held across Update or View.
const (
	headerSize = 12
	editSize   = 64
)

// blob is the stored value type; rawCodec passes it through so the
// engine's costs are measured without a serialiser on top.
type blob = []byte

type rawCodec struct{}

func (rawCodec) Marshal(b *blob) ([]byte, error)   { return *b, nil }
func (rawCodec) Unmarshal(b []byte) (*blob, error) { return &b, nil }

// newPayload builds the sequence-0 payload of object index.
func newPayload(r *rand.Rand, index uint32, size int) []byte {
	p := make([]byte, size)
	r.Read(p[headerSize:])
	seal(p, index, 0)
	return p
}

// nextPayload derives the payload a writer stores next: sequence+1 and
// a 64-byte edit of the previous body at a position drawn from salt.
func nextPayload(prev []byte, salt uint32) []byte {
	p := append([]byte(nil), prev...)
	body := p[headerSize:]
	n := editSize
	if n > len(body) {
		n = len(body)
	}
	off := 0
	if len(body) > n {
		off = int(salt) % (len(body) - n)
	}
	for i := 0; i < n; i++ {
		body[off+i] = byte(salt>>(8*(uint(i)&3))) + byte(i)
	}
	seal(p, index(p), sequence(p)+1)
	return p
}

func seal(p []byte, index, seq uint32) {
	binary.BigEndian.PutUint32(p[0:], index)
	binary.BigEndian.PutUint32(p[4:], seq)
	binary.BigEndian.PutUint32(p[8:], crc32.ChecksumIEEE(p[headerSize:]))
}

func index(p []byte) uint32    { return binary.BigEndian.Uint32(p[0:]) }
func sequence(p []byte) uint32 { return binary.BigEndian.Uint32(p[4:]) }

// verify checks that p is an intact payload of object want.
func verify(p []byte, want uint32, size int) error {
	if len(p) != size {
		return fmt.Errorf("object %d: payload is %d bytes, want %d", want, len(p), size)
	}
	if got := index(p); got != want {
		return fmt.Errorf("object %d: payload belongs to object %d", want, got)
	}
	if crc32.ChecksumIEEE(p[headerSize:]) != binary.BigEndian.Uint32(p[8:]) {
		return fmt.Errorf("object %d seq %d: body checksum mismatch", want, sequence(p))
	}
	return nil
}
