package core

import (
	"encoding/binary"
	"slices"

	"ode/internal/oid"
)

// VersionInfo is the public view of a version's metadata.
type VersionInfo struct {
	VID   oid.VID
	Stamp oid.Stamp
	Dprev oid.VID // derived-from parent
	Tprev oid.VID // temporal predecessor
	Tnext oid.VID // temporal successor
	Size  uint64  // content bytes
	// Delta reports whether the payload is stored dependently (delta or
	// shared) rather than in full.
	Delta bool
	// ChainDepth is the number of links to the nearest full payload.
	ChainDepth int
}

// Info returns a version's metadata.
func (tx *shardTx) Info(o oid.OID, v oid.VID) (VersionInfo, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return VersionInfo{}, err
	}
	return VersionInfo{
		VID:   v,
		Stamp: rec.stamp,
		Dprev: rec.dprev,
		Tprev: rec.tprev,
		Tnext: rec.tnext,
		Size:  rec.size,
		Delta: rec.kind != payFull,
		// ChainDepth counts materialisation links (deltas and shared
		// payloads) to the nearest full payload.
		ChainDepth: int(rec.depth),
	}, nil
}

// Dprev returns the version this version was derived from — the paper's
// Dprevious traversal. Nil for a root version.
func (tx *shardTx) Dprev(o oid.OID, v oid.VID) (oid.VID, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return oid.NilVID, err
	}
	return rec.dprev, nil
}

// Tprev returns the version temporally preceding v — the paper's
// Tprevious traversal. Nil for the object's oldest version.
func (tx *shardTx) Tprev(o oid.OID, v oid.VID) (oid.VID, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return oid.NilVID, err
	}
	return rec.tprev, nil
}

// Tnext returns the version temporally following v, nil for the latest.
func (tx *shardTx) Tnext(o oid.OID, v oid.VID) (oid.VID, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return oid.NilVID, err
	}
	return rec.tnext, nil
}

// walkLimit is how many temporal successors DChildren inspects before
// it gives up and scans the object's version records. A point lookup
// costs as much as 5–25 scanned records (EXPERIMENTS.md E24), so the
// walk pays only near the tail, which is where the write path asks.
const walkLimit = 4

// DChildren returns the versions directly derived from v, in vid order.
// Multiple children are the paper's alternatives (§4.3): parallel
// versions derived from the same ancestor.
//
// A version is created after the version it derives from, so every
// D-child of v follows v on the temporal chain (CheckObject invariant
// 6). When v is at most walkLimit versions from the tail, its children
// are found among those successors in at most walkLimit+1 point
// lookups, at any history length. Deeper in history it scans the
// object's version records, O(versions).
func (tx *shardTx) DChildren(o oid.OID, v oid.VID) ([]oid.VID, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return nil, err
	}
	var out []oid.VID
	cur := rec.tnext
	for i := 0; i < walkLimit && !cur.IsNil(); i++ {
		next, err := tx.loadVer(o, cur)
		if err != nil {
			return nil, err
		}
		if next.dprev == v {
			out = append(out, cur)
		}
		cur = next.tnext
	}
	if cur.IsNil() {
		// Temporal and vid order differ once a reshard composed vids.
		slices.Sort(out)
		return out, nil
	}
	out = nil
	err = tx.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		rec, err := decodeVerRec(val)
		if err != nil {
			return false, err
		}
		if rec.dprev == v {
			out = append(out, oid.VID(binary.BigEndian.Uint64(k[8:16])))
		}
		return true, nil
	})
	return out, err
}

// History returns the version history of v: the derivation chain from v
// back to the root version, in that order — §4.4's "v3, v1, and v0
// constitute a version history".
func (tx *shardTx) History(o oid.OID, v oid.VID) ([]oid.VID, error) {
	var out []oid.VID
	cur := v
	for !cur.IsNil() {
		out = append(out, cur)
		rec, err := tx.loadVer(o, cur)
		if err != nil {
			return nil, err
		}
		cur = rec.dprev
	}
	// Chain-walk length: versions visited per History call. Growth here
	// is the signal that derivation chains are getting deep.
	tx.e.m.DprevWalkLen.Observe(uint64(len(out)))
	return out, nil
}

// Leaves returns the leaves of the derived-from tree in vid order. Each
// leaf is "the most up-to-date version of an alternative design" (§4.5);
// each root→leaf path is the evolution of one alternative.
func (tx *shardTx) Leaves(o oid.OID) ([]oid.VID, error) {
	hasChild := map[oid.VID]bool{}
	var all []oid.VID
	err := tx.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		rec, err := decodeVerRec(val)
		if err != nil {
			return false, err
		}
		all = append(all, oid.VID(binary.BigEndian.Uint64(k[8:16])))
		if !rec.dprev.IsNil() {
			hasChild[rec.dprev] = true
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	var leaves []oid.VID
	for _, v := range all {
		if !hasChild[v] {
			leaves = append(leaves, v)
		}
	}
	return leaves, nil
}

// Versions returns all live versions of the object in temporal
// (creation) order, oldest first.
func (tx *shardTx) Versions(o oid.OID) ([]oid.VID, error) {
	var out []oid.VID
	err := tx.tempIdx.AscendPrefix(objKey(o), func(_, val []byte) (bool, error) {
		out = append(out, oid.VID(binary.BigEndian.Uint64(val)))
		return true, nil
	})
	return out, err
}

// AsOf returns the version that was latest at the given stamp: the
// version with the largest creation stamp ≤ s. ok=false when the object
// had no version yet at s. This is the historical-database access the
// paper motivates with accounting/legal/financial applications (§2).
func (tx *shardTx) AsOf(o oid.OID, s oid.Stamp) (oid.VID, bool, error) {
	k, val, ok, err := tx.tempIdx.SeekLE(tempKey(o, s))
	if err != nil || !ok {
		return oid.NilVID, false, err
	}
	// SeekLE may land on a different object's key; verify the prefix.
	if binary.BigEndian.Uint64(k[0:8]) != uint64(o) {
		return oid.NilVID, false, nil
	}
	return oid.VID(binary.BigEndian.Uint64(val)), true, nil
}

// AsOfWalk answers the same question as AsOf by walking the temporal
// chain backwards from the latest version — the baseline E8 benchmarks
// against the indexed SeekLE.
func (tx *shardTx) AsOfWalk(o oid.OID, s oid.Stamp) (oid.VID, bool, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilVID, false, err
	}
	visited := uint64(0)
	defer func() { tx.e.m.TprevWalkLen.Observe(visited) }()
	cur := h.latest
	for !cur.IsNil() {
		rec, err := tx.loadVer(o, cur)
		if err != nil {
			return oid.NilVID, false, err
		}
		visited++
		if rec.stamp <= s {
			return cur, true, nil
		}
		cur = rec.tprev
	}
	return oid.NilVID, false, nil
}

// CurrentStamp returns the engine's logical clock value (the stamp of
// the most recent version-creating operation).
func (tx *shardTx) CurrentStamp() oid.Stamp {
	return oid.Stamp(tx.st.Counter(ctrStamp))
}
