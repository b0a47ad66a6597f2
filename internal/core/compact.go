package core

import (
	"encoding/binary"
	"time"

	"ode/internal/delta"
	"ode/internal/oid"
)

// This file is the delta storage tier's write side (DESIGN.md §14).
// Reads materialise through readContent; here live the two
// primitives that change how a version's payload is REPRESENTED without
// changing its content:
//
//   - demotion: a stored full payload is re-encoded as a delta against
//     its D-parent and the full copy reclaimed, provided every
//     dependent chain through it stays within AnchorInterval links of a
//     full anchor and the delta actually saves space;
//   - promotion: a dependent payload is rewritten as a full anchor,
//     restoring the depth bound when a chain is found too deep (for
//     example after AnchorInterval shrank across a reopen).
//
// Both are ordinary logged mutations inside a write transaction, so
// crash safety falls out of the WAL/2PC machinery: a demotion either
// committed (delta on disk, chain intact) or it didn't (full payload
// untouched). The write paths demote a version when it goes cold
// (version.go); ode.DB.Compact sweeps older history through
// CompactShard below, whose per-object pass (compactObject) offers each
// version to the same demoteVersion and promoteVersion, oldest first.
// So there is one demotion engine and one materialiser (readContent);
// the sweep's price is depBelow's DChildren scan, O(versions), for each
// version it demotes deep in history.

// demotable is the one demotion rule, applied by demoteVersion and used
// by compactObject to skip the versions it would refuse outright. A
// version may have its full payload re-encoded as a delta against its
// D-parent when it is neither the object's latest version (the hot
// dereference target stays cheap) nor a derivation root, and when every
// dependent chain through it stays within AnchorInterval links of a
// full anchor: parentDepth links down to the D-parent's anchor, one for
// v, below for its deepest dependent descendant. Whether the delta is
// worth keeping is demoteVersion's call.
func (tx *shardTx) demotable(v, latest oid.VID, rec verRec, parentDepth, below int) bool {
	return rec.kind == payFull && v != latest && !rec.dprev.IsNil() &&
		parentDepth+1+below <= tx.opts.AnchorInterval
}

// setFull makes rec a full anchor holding content.
func (tx *shardTx) setFull(rec *verRec, content []byte) error {
	if err := tx.putPayload(rec, content); err != nil {
		return err
	}
	rec.kind = payFull
	rec.depth = 0
	rec.size = uint64(len(content))
	return nil
}

// putPayload stores b as rec's payload record: a version without one (a
// paySame version) gets a record inserted, any other has its record
// overwritten.
func (tx *shardTx) putPayload(rec *verRec, b []byte) error {
	if !rec.payload.IsNil() {
		return tx.heap.Update(rec.payload, b)
	}
	rid, err := tx.heap.Insert(b)
	if err != nil {
		return err
	}
	rec.payload = rid
	return nil
}

// demoteVersion re-encodes (o, v)'s stored full payload as a delta
// against its D-parent when demotable allows it and the delta is
// smaller. It returns the payload bytes the demotion saved, 0 when it
// refused: a refusal is not an error, since most callers are write-path
// hooks and the sweep trying versions that may have gone cold.
func (tx *shardTx) demoteVersion(o oid.OID, v oid.VID) (int, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return 0, err
	}
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return 0, err
	}
	// The rule with the shortest chains it could see refuses most
	// versions (dependents, roots, the latest, children of a parent at
	// the bound) before any content is read, and a delta that would not
	// shrink the payload is refused before depBelow's walk of the
	// dependents, which scans the object's versions deep in history.
	if !tx.demotable(v, h.latest, rec, 0, 0) {
		return 0, nil
	}
	parent, err := tx.loadVer(o, rec.dprev)
	if err != nil {
		return 0, err
	}
	depth := int(parent.depth)
	if !tx.demotable(v, h.latest, rec, depth, 0) {
		return 0, nil
	}
	base, err := tx.readContent(o, parent)
	if err != nil {
		return 0, err
	}
	content, err := tx.readContent(o, rec)
	if err != nil {
		return 0, err
	}
	d := delta.Encode(base, content)
	if len(d) >= len(content) {
		return 0, nil
	}
	below, children, err := tx.depBelow(o, v)
	if err != nil {
		return 0, err
	}
	if !tx.demotable(v, h.latest, rec, depth, below) {
		return 0, nil
	}
	if err := tx.heap.Update(rec.payload, d); err != nil {
		return 0, err
	}
	rec.kind = payDelta
	rec.depth = uint16(depth + 1)
	saved := len(content) - len(d)
	if err := tx.storeVer(o, v, rec); err != nil {
		return 0, err
	}
	if err := tx.fixDepths(o, children, rec.depth); err != nil {
		return 0, err
	}
	tx.saveRoots()
	tx.e.m.DeltaDemotions.Inc()
	tx.e.m.DeltaBytesSaved.Add(uint64(saved))
	return saved, nil
}

// demoteAnchorOf retries demotion of the full anchor v's content hangs
// from (v itself when full, else its nearest full D-ancestor) after a
// dependent chain below that anchor got shorter.
func (tx *shardTx) demoteAnchorOf(o oid.OID, v oid.VID) error {
	for {
		rec, err := tx.loadVer(o, v)
		if err != nil {
			return err
		}
		if rec.kind == payFull {
			_, err := tx.demoteVersion(o, v)
			return err
		}
		v = rec.dprev
	}
}

// promoteVersion rewrites a dependent payload as a full anchor (depth
// 0), re-basing its dependent descendants' depth hints. False when v is
// already full.
func (tx *shardTx) promoteVersion(o oid.OID, v oid.VID) (bool, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return false, err
	}
	if rec.kind == payFull {
		return false, nil
	}
	if err := tx.anchor(o, v, rec); err != nil {
		return false, err
	}
	tx.saveRoots()
	tx.e.m.DeltaPromotions.Inc()
	return true, nil
}

// anchor rewrites v's dependent payload (rec is paySame or payDelta) as
// a full one in place and re-bases its descendants' depth hints.
func (tx *shardTx) anchor(o oid.OID, v oid.VID, rec verRec) error {
	content, err := tx.readContent(o, rec)
	if err != nil {
		return err
	}
	if err := tx.setFull(&rec, content); err != nil {
		return err
	}
	if err := tx.storeVer(o, v, rec); err != nil {
		return err
	}
	children, err := tx.DChildren(o, v)
	if err != nil {
		return err
	}
	return tx.fixDepths(o, children, 0)
}

// depBelow returns the deepest dependent-descendant chain hanging off
// v, in links relative to v — 0 when no child depends on v's bytes —
// and v's D-children, which a demotion of v re-bases (fixDepths). A
// payFull child is its own anchor and contributes nothing.
func (tx *shardTx) depBelow(o oid.OID, v oid.VID) (int, []oid.VID, error) {
	children, err := tx.DChildren(o, v)
	if err != nil {
		return 0, nil, err
	}
	max := 0
	for _, c := range children {
		crec, err := tx.loadVer(o, c)
		if err != nil {
			return 0, nil, err
		}
		if crec.kind == payFull {
			continue
		}
		d, _, err := tx.depBelow(o, c)
		if err != nil {
			return 0, nil, err
		}
		if 1+d > max {
			max = 1 + d
		}
	}
	return max, children, nil
}

// CompactStats reports the effect of a compaction sweep.
type CompactStats struct {
	Objects    int   // objects examined
	Demoted    int   // full payloads re-encoded as deltas
	Promoted   int   // dependent payloads anchored as fulls
	BytesSaved int64 // payload bytes reclaimed by the demotions
	More       bool  // the mutation budget ran out before the sweep finished
}

func (s *CompactStats) add(o CompactStats) {
	s.Objects += o.Objects
	s.Demoted += o.Demoted
	s.Promoted += o.Promoted
	s.BytesSaved += o.BytesSaved
	s.More = s.More || o.More
}

// compactObject is the sweep's pass over one object: its versions in
// temporal order, each through the write path's own primitives. A
// D-parent is older than its children (CheckObject invariant 6), so
// every version is decided after its parent, against depths the
// decisions above it already re-based. A dependent version is promoted
// when it is the latest (only earlier code wrote one) or sits deeper
// than AnchorInterval (it shrank across a reopen); a full one is offered
// to demoteVersion. At most lim promotions and demotions are made;
// stats.More reports that the budget ran out before a version that
// might take one.
func (tx *shardTx) compactObject(o oid.OID, lim int) (CompactStats, error) {
	stats := CompactStats{Objects: 1}
	h, err := tx.loadHeader(o)
	if err != nil {
		return stats, err
	}
	vids, err := tx.Versions(o)
	if err != nil {
		return stats, err
	}
	for _, v := range vids {
		rec, err := tx.loadVer(o, v)
		if err != nil {
			return stats, err
		}
		promote := rec.kind != payFull &&
			(v == h.latest || int(rec.depth) > tx.opts.AnchorInterval)
		if !promote && !tx.demotable(v, h.latest, rec, 0, 0) {
			continue
		}
		if stats.Demoted+stats.Promoted >= lim {
			stats.More = true
			break
		}
		if promote {
			if _, err := tx.promoteVersion(o, v); err != nil {
				return stats, err
			}
			stats.Promoted++
			continue
		}
		saved, err := tx.demoteVersion(o, v)
		if err != nil {
			return stats, err
		}
		if saved > 0 {
			stats.Demoted++
			stats.BytesSaved += int64(saved)
		}
	}
	tx.e.m.CompactObjects.Inc()
	return stats, nil
}

// CompactShard runs one bounded compaction pass over physical shard s,
// starting at the first object with oid >= from (NilOID starts at the
// beginning). At most lim demotions+promotions are committed in the one
// write transaction this makes — demotion is just another logged
// mutation, so a crash either keeps or loses the whole pass. Returns
// the resume cursor: NilOID when the shard's object table is exhausted.
func (e *Engine) CompactShard(s int, from oid.OID, lim int) (CompactStats, oid.OID, error) {
	if lim <= 0 {
		lim = 256
	}
	var (
		stats CompactStats
		next  oid.OID
	)
	start := time.Now()
	err := e.Write(func(tx *Tx) error {
		stats, next = CompactStats{}, oid.NilOID // reset on restart
		if s >= tx.n {
			return nil
		}
		b, err := tx.shardW(s)
		if err != nil {
			return err
		}
		if b.st.Root(rootObjTable) == oid.NilPage {
			return nil // merged-away or not-yet-provisioned shard
		}
		budget := lim
		var lo []byte
		if from != oid.NilOID {
			lo = objKey(from)
		}
		return b.objTable.Ascend(lo, nil, func(k, _ []byte) (bool, error) {
			o := oid.OID(binary.BigEndian.Uint64(k[:8]))
			st, err := b.compactObject(o, budget)
			if err != nil {
				return false, err
			}
			budget -= st.Demoted + st.Promoted
			stats.add(st)
			if st.More || budget <= 0 {
				// Resume at this object (More) or after it.
				if st.More {
					next = o
				} else {
					next = o + 1
				}
				stats.More = true
				return false, nil
			}
			return true, nil
		})
	})
	if err != nil {
		return stats, from, err
	}
	e.m.CompactDuration.Observe(uint64(time.Since(start).Nanoseconds()))
	if next == oid.NilOID {
		e.m.CompactPasses.Inc()
	}
	return stats, next, nil
}

// CompactAll sweeps every physical shard to completion in bounded
// transactions of at most lim mutations each — the deterministic driver
// behind ode.DB.Compact and the test batteries.
func (e *Engine) CompactAll(lim int) (CompactStats, error) {
	if lim <= 0 {
		lim = 256
	}
	var total CompactStats
	for s := 0; s < e.c.NumShards(); s++ {
		from := oid.NilOID
		for {
			st, next, err := e.CompactShard(s, from, lim)
			if err != nil {
				return total, err
			}
			st.More = false // budget cuts are internal to the loop
			total.add(st)
			if next == oid.NilOID {
				break
			}
			from = next
		}
	}
	return total, nil
}

// PayloadStats aggregates how version payloads are physically
// represented across the database — the space side of the delta tier's
// trade-off, reported by odedump and measured by odebench E17.
type PayloadStats struct {
	Full  int // versions stored as full payloads (anchors)
	Delta int // versions stored as deltas against their D-parent
	Same  int // versions sharing their D-parent's bytes outright

	FullBytes    int64 // payload heap bytes held by full payloads
	DeltaBytes   int64 // payload heap bytes held by deltas
	LogicalBytes int64 // sum of materialised content lengths
	MaxDepth     int   // deepest stored chain-depth hint
}

// HeapBytes returns the total payload heap footprint.
func (p PayloadStats) HeapBytes() int64 { return p.FullBytes + p.DeltaBytes }

// PayloadStats scans every physical shard's version index.
func (tx *Tx) PayloadStats() (PayloadStats, error) {
	var ps PayloadStats
	for s := 0; s < tx.n; s++ {
		b, err := tx.shardR(s)
		if err != nil {
			return ps, err
		}
		if b.st.Root(rootObjTable) == oid.NilPage {
			continue
		}
		err = b.verIdx.Ascend(nil, nil, func(_, val []byte) (bool, error) {
			rec, err := decodeVerRec(val)
			if err != nil {
				return false, err
			}
			ps.LogicalBytes += int64(rec.size)
			if int(rec.depth) > ps.MaxDepth {
				ps.MaxDepth = int(rec.depth)
			}
			switch rec.kind {
			case payFull:
				ps.Full++
				raw, err := b.heap.Read(rec.payload)
				if err != nil {
					return false, err
				}
				ps.FullBytes += int64(len(raw))
			case payDelta:
				ps.Delta++
				raw, err := b.heap.Read(rec.payload)
				if err != nil {
					return false, err
				}
				ps.DeltaBytes += int64(len(raw))
			case paySame:
				ps.Same++
			}
			return true, nil
		})
		if err != nil {
			return ps, err
		}
	}
	return ps, nil
}

// PayloadStats reports payload representation totals as of the most
// recent commit.
func (e *Engine) PayloadStats() (PayloadStats, error) {
	var ps PayloadStats
	err := e.Read(func(tx *Tx) error {
		var err error
		ps, err = tx.PayloadStats()
		return err
	})
	return ps, err
}

// DemoteVersion demotes one version through the routing layer. Only
// tests call it, to build precise shapes; odeshell sweeps with Compact.
func (tx *Tx) DemoteVersion(o oid.OID, v oid.VID) (bool, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return false, err
	}
	saved, err := b.demoteVersion(o, v)
	return saved > 0, err
}

// PromoteVersion anchors one version as a full payload through the
// routing layer. Only tests call it.
func (tx *Tx) PromoteVersion(o oid.OID, v oid.VID) (bool, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return false, err
	}
	return b.promoteVersion(o, v)
}
