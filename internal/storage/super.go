package storage

import (
	"errors"
	"fmt"

	"ode/internal/codec"
	"ode/internal/oid"
)

// Magic identifies an Ode store file.
const Magic uint64 = 0x4F44455245505231 // "ODEREP R1"

// FormatVersion is bumped on incompatible on-disk changes.
const FormatVersion uint32 = 1

// NumRoots is the number of named structure roots the superblock holds;
// the engine assigns meanings (object table, indexes, catalog, ...).
const NumRoots = 8

// NumCounters is the number of persistent monotonic counters (oid, vid,
// stamp, txid, ...).
const NumCounters = 8

// ErrBadMagic reports a file that is not an Ode store.
var ErrBadMagic = errors.New("storage: bad magic (not an ode store)")

// ErrBadVersion reports an incompatible store format version.
var ErrBadVersion = errors.New("storage: incompatible format version")

// super is the decoded superblock. It is cached by the Store, and a
// writer's changes to it are marshalled into page 0 once, when the
// transaction is staged (Store.SealSuper).
type super struct {
	pageSize uint32
	nPages   uint64 // logical page count (may exceed physical until flush)
	freeHead oid.PageID
	roots    [NumRoots]oid.PageID
	counters [NumCounters]uint64
	ckptLSN  oid.LSN
}

// Fixed layout offsets within the page body for the peek in openStore:
// magic at body[0:8], version at body[8:12], pageSize at body[12:16].
func (s *super) marshalInto(p *Page) {
	body := p.Body()
	w := codec.AppendU64(body[:0], Magic)
	w = codec.AppendU32(w, FormatVersion)
	w = codec.AppendU32(w, s.pageSize)
	w = codec.AppendU64(w, s.nPages)
	w = codec.AppendU32(w, uint32(s.freeHead))
	for _, r := range s.roots {
		w = codec.AppendU32(w, uint32(r))
	}
	for _, c := range s.counters {
		w = codec.AppendU64(w, c)
	}
	w = codec.AppendU64(w, uint64(s.ckptLSN))
	clear(body[len(w):]) // deterministic checksums
}

func (s *super) unmarshalFrom(p *Page) error {
	r := codec.NewReader(p.Body())
	if got := r.U64(); got != Magic {
		return fmt.Errorf("%w: %#x", ErrBadMagic, got)
	}
	if got := r.U32(); got != FormatVersion {
		return fmt.Errorf("%w: %d (want %d)", ErrBadVersion, got, FormatVersion)
	}
	s.pageSize = r.U32()
	s.nPages = r.U64()
	s.freeHead = oid.PageID(r.U32())
	for i := range s.roots {
		s.roots[i] = oid.PageID(r.U32())
	}
	for i := range s.counters {
		s.counters[i] = r.U64()
	}
	s.ckptLSN = oid.LSN(r.U64())
	return r.Err()
}
