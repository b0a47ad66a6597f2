// Package delta implements binary differencing for version payloads.
// The paper (§2) observes that the derived-from relationship "can be used
// to store versions by storing their differences (called deltas)", citing
// SCCS and RCS. This package provides that storage policy: a version's
// payload can be stored as a copy/insert delta against its derived-from
// parent and materialised by applying the delta chain.
//
// The encoder has two passes. An edit that keeps the payload's length —
// every in-place edit of a version — is encoded positionally: one O(n)
// scan that copies each run of at least blockSize bytes equal at the
// same offset and inserts the rest. Anything else (a length change, or
// a positional delta no smaller than the target, as when content moved)
// goes to a greedy block-hash matcher in the spirit of xdelta: the base
// is indexed by the hash of every aligned block; the target is scanned,
// and block-hash hits are extended byte-wise forward to maximal matches,
// which become COPY ops; unmatched bytes become INSERT ops. Both emit
// the one format Apply reads.
package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ode/internal/codec"
)

// blockSize is the granularity of base indexing. Smaller blocks find more
// matches but cost more index space; 16 is a good fit for the record
// sizes an object store sees.
const blockSize = 16

// op tags in the encoded delta.
const (
	opInsert = 0
	opCopy   = 1
)

// ErrCorrupt reports a delta that cannot be decoded or applied.
var ErrCorrupt = errors.New("delta: corrupt delta")

// Encode produces a delta that transforms base into target. The result
// is self-describing (it embeds the target length) and is always valid
// to Apply against base. Encode never fails; for incompressible pairs
// the delta degenerates to one big INSERT (with a few bytes of framing
// overhead).
func Encode(base, target []byte) []byte {
	w := make([]byte, 0, 64+len(target)/8)
	w = codec.AppendUVarint(w, uint64(len(target)))
	if len(base) == len(target) {
		if d := encodePositional(w, base, target); len(d) < len(target) {
			return d
		}
	}
	return encodeBlocks(w, base, target)
}

// encodePositional appends to w (the delta's length header) the ops that
// rebuild target from an equal-length base in place: a COPY of each run
// of at least blockSize bytes equal at the same offset, an INSERT of
// what lies between them.
func encodePositional(w, base, target []byte) []byte {
	n := len(target)
	ins := 0 // where the pending INSERT starts
	for i := 0; i < n; {
		if base[i] != target[i] {
			i++
			continue
		}
		j := i + 1
		for j+8 <= n && binary.LittleEndian.Uint64(base[j:]) == binary.LittleEndian.Uint64(target[j:]) {
			j += 8
		}
		for j < n && base[j] == target[j] {
			j++
		}
		if j-i >= blockSize {
			if i > ins {
				w = emitInsert(w, target[ins:i])
			}
			w = emitCopy(w, i, j-i)
			ins = j
		}
		i = j
	}
	if ins < n {
		w = emitInsert(w, target[ins:])
	}
	return w
}

// encodeBlocks appends to w (the delta's length header) the block
// matcher's ops for target against base.
func encodeBlocks(w, base, target []byte) []byte {
	if len(base) < blockSize || len(target) < blockSize {
		// Too small to match blocks; emit a pure insert.
		if len(target) > 0 {
			w = emitInsert(w, target)
		}
		return w
	}

	// Index base: hash of each aligned block -> offsets (chained).
	index := make(map[uint64][]int, len(base)/blockSize+1)
	for off := 0; off+blockSize <= len(base); off += blockSize {
		h := hashBlock(base[off : off+blockSize])
		index[h] = append(index[h], off)
	}

	var pendingInsert []byte
	i := 0
	for i < len(target) {
		if i+blockSize > len(target) {
			pendingInsert = append(pendingInsert, target[i:]...)
			break
		}
		h := hashBlock(target[i : i+blockSize])
		srcOff, matchLen := bestMatch(base, target, index[h], i)
		if matchLen < blockSize {
			pendingInsert = append(pendingInsert, target[i])
			i++
			continue
		}
		if len(pendingInsert) > 0 {
			w = emitInsert(w, pendingInsert)
			pendingInsert = pendingInsert[:0]
		}
		w = emitCopy(w, srcOff, matchLen)
		i += matchLen
	}
	if len(pendingInsert) > 0 {
		w = emitInsert(w, pendingInsert)
	}
	return w
}

// bestMatch finds the longest forward match among candidate base offsets
// for the block at target[i:].
func bestMatch(base, target []byte, candidates []int, i int) (srcOff, matchLen int) {
	// Cap the work per block; keep the earliest offsets, which maximise
	// the forward extension room and thus match length.
	const maxCandidates = 8
	if len(candidates) > maxCandidates {
		candidates = candidates[:maxCandidates]
	}
	for _, off := range candidates {
		if !bytes.Equal(base[off:off+blockSize], target[i:i+blockSize]) {
			continue // hash collision
		}
		n := blockSize
		for off+n < len(base) && i+n < len(target) && base[off+n] == target[i+n] {
			n++
		}
		if n > matchLen {
			srcOff, matchLen = off, n
		}
	}
	return srcOff, matchLen
}

func emitInsert(w, data []byte) []byte {
	return codec.AppendBytes32(codec.AppendU8(w, opInsert), data)
}

func emitCopy(w []byte, off, n int) []byte {
	w = codec.AppendU8(w, opCopy)
	w = codec.AppendUVarint(w, uint64(off))
	return codec.AppendUVarint(w, uint64(n))
}

func hashBlock(b []byte) uint64 {
	// FNV-1a over the block; collisions are verified byte-wise.
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Apply reconstructs the target from base and a delta produced by Encode.
func Apply(base, delta []byte) ([]byte, error) {
	r := codec.NewReader(delta)
	targetLen := r.UVarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.Err())
	}
	if targetLen > codec.MaxBlob {
		return nil, fmt.Errorf("%w: target length %d", ErrCorrupt, targetLen)
	}
	out := make([]byte, 0, targetLen)
	for r.Remaining() > 0 {
		switch tag := r.U8(); tag {
		case opInsert:
			data := r.Bytes32()
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: insert: %v", ErrCorrupt, r.Err())
			}
			out = append(out, data...)
			if uint64(len(out)) > targetLen {
				return nil, fmt.Errorf("%w: output exceeds declared length %d", ErrCorrupt, targetLen)
			}
		case opCopy:
			off := r.UVarint()
			n := r.UVarint()
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: copy: %v", ErrCorrupt, r.Err())
			}
			// Checked separately: off+n alone can wrap around uint64 and
			// slip past a combined bound.
			if n > uint64(len(base)) || off > uint64(len(base))-n {
				return nil, fmt.Errorf("%w: copy [%d,+%d) beyond base %d", ErrCorrupt, off, n, len(base))
			}
			out = append(out, base[off:off+n]...)
			if uint64(len(out)) > targetLen {
				return nil, fmt.Errorf("%w: output exceeds declared length %d", ErrCorrupt, targetLen)
			}
		default:
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.Err())
			}
			return nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, tag)
		}
	}
	if uint64(len(out)) != targetLen {
		return nil, fmt.Errorf("%w: produced %d bytes, want %d", ErrCorrupt, len(out), targetLen)
	}
	return out, nil
}

// MaterializeChain applies deltas in order starting from base:
// base -> chain[0] -> chain[1] -> ... and returns the final payload.
func MaterializeChain(base []byte, chain [][]byte) ([]byte, error) {
	cur := base
	for i, d := range chain {
		next, err := Apply(cur, d)
		if err != nil {
			return nil, fmt.Errorf("delta: chain link %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// Ratio returns len(delta)/len(target) as a compactness measure for the
// benchmarks (1.0 ≈ no savings; small values ≈ high redundancy).
func Ratio(deltaLen, targetLen int) float64 {
	if targetLen == 0 {
		return 1
	}
	return float64(deltaLen) / float64(targetLen)
}
