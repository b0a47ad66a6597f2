package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"ode/internal/delta"
	"ode/internal/oid"
)

// This file is the delta storage tier's write side (DESIGN.md §14).
// Reads materialise through readContent/the cache; here live the two
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
// CompactShard below.

// demotable is the one demotion rule, shared by demoteVersion and
// compactObject's walk. A version may have its full payload re-encoded
// as a delta against its D-parent when it is neither the object's
// latest version (the hot dereference target stays cheap) nor a
// derivation root, and when every dependent chain through it stays
// within AnchorInterval links of a full anchor: parentDepth links down
// to the D-parent's anchor, one for v, below for its deepest dependent
// descendant. Whether the delta is worth keeping is demoteTo's call.
func (tx *shardTx) demotable(v, latest oid.VID, rec verRec, parentDepth, below int) bool {
	return rec.kind == payFull && v != latest && !rec.dprev.IsNil() &&
		parentDepth+1+below <= tx.opts.AnchorInterval
}

// demoteTo overwrites rec's full payload with the delta from base (the
// D-parent's content, at chain depth parentDepth) to content, provided
// the delta is strictly smaller. It returns the bytes saved: 0 when the
// delta would not shrink the payload and rec is left as it was.
func (tx *shardTx) demoteTo(rec *verRec, parentDepth int, base, content []byte) (int, error) {
	d := delta.Encode(base, content)
	if len(d) >= len(content) {
		return 0, nil
	}
	if err := tx.heap.Update(rec.payload, d); err != nil {
		return 0, err
	}
	rec.kind = payDelta
	rec.depth = uint16(parentDepth + 1)
	return len(content) - len(d), nil
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
// smaller; latest is the object's latest version. It reports whether a
// demotion happened: a refusal is not an error, since most callers are
// write-path hooks trying versions that may have gone cold.
func (tx *shardTx) demoteVersion(o oid.OID, v, latest oid.VID) (bool, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return false, err
	}
	// The rule with the shortest chain it could see refuses most
	// versions (dependents, roots, the latest) before the lookups the
	// real chain length costs.
	if !tx.demotable(v, latest, rec, 0, 0) {
		return false, nil
	}
	parent, err := tx.loadVer(o, rec.dprev)
	if err != nil {
		return false, err
	}
	below, err := tx.depBelow(o, v)
	if err != nil {
		return false, err
	}
	if !tx.demotable(v, latest, rec, int(parent.depth), below) {
		return false, nil
	}
	base, err := tx.readContent(o, parent)
	if err != nil {
		return false, err
	}
	content, err := tx.readContent(o, rec)
	if err != nil {
		return false, err
	}
	saved, err := tx.demoteTo(&rec, int(parent.depth), base, content)
	if err != nil || saved == 0 {
		return false, err
	}
	if err := tx.storeVer(o, v, rec); err != nil {
		return false, err
	}
	if err := tx.fixDepths(o, v, rec.depth); err != nil {
		return false, err
	}
	tx.saveRoots()
	tx.e.m.DeltaDemotions.Inc()
	tx.e.m.DeltaBytesSaved.Add(uint64(saved))
	return true, nil
}

// demoteAnchorOf retries demotion of the full anchor v's content hangs
// from (v itself when full, else its nearest full D-ancestor) after a
// dependent chain below that anchor got shorter.
func (tx *shardTx) demoteAnchorOf(o oid.OID, v, latest oid.VID) error {
	for {
		rec, err := tx.loadVer(o, v)
		if err != nil {
			return err
		}
		if rec.kind == payFull {
			_, err := tx.demoteVersion(o, v, latest)
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
	return tx.fixDepths(o, v, 0)
}

// depBelow returns the deepest dependent-descendant chain hanging off
// v, in links relative to v: 0 when no child depends on v's bytes. A
// payFull child is its own anchor and contributes nothing.
func (tx *shardTx) depBelow(o oid.OID, v oid.VID) (int, error) {
	children, err := tx.DChildren(o, v)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, c := range children {
		crec, err := tx.loadVer(o, c)
		if err != nil {
			return 0, err
		}
		if crec.kind == payFull {
			continue
		}
		d, err := tx.depBelow(o, c)
		if err != nil {
			return 0, err
		}
		if 1+d > max {
			max = 1 + d
		}
	}
	return max, nil
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

// verNode is compactObject's in-memory copy of one version record.
type verNode struct {
	v        oid.VID
	rec      verRec
	children []*verNode
	depBelow int // scan-time dependent-descendant depth below this node
}

// compactObject walks one object's whole derivation forest top-down,
// demoting eligible full payloads, promoting over-deep dependents, and
// repairing stale depth hints — the batch form of demoteVersion that
// costs one version scan per object instead of one per version. At most
// lim demotions+promotions are performed (depth repairs are always
// applied, keeping the object consistent); stats.More reports a budget
// cut. The walk carries each parent's materialised content down the
// tree so no chain is ever walked twice.
func (tx *shardTx) compactObject(o oid.OID, lim int) (CompactStats, error) {
	var stats CompactStats
	h, err := tx.loadHeader(o)
	if err != nil {
		return stats, err
	}

	// One scan: load every version record.
	nodes := make(map[oid.VID]*verNode)
	err = tx.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		v := oid.VID(binary.BigEndian.Uint64(k[8:16]))
		rec, err := decodeVerRec(val)
		if err != nil {
			return false, err
		}
		nodes[v] = &verNode{v: v, rec: rec}
		return true, nil
	})
	if err != nil {
		return stats, err
	}
	var roots []*verNode
	for _, n := range nodes {
		if p, ok := nodes[n.rec.dprev]; ok && !n.rec.dprev.IsNil() {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	// Scan-time dependent depths, bottom-up, counting the latest as the
	// anchor the walk makes it. A node's decision below only ever
	// extends chains whose other links are re-checked with exact
	// post-decision depths, so these stay valid during the walk.
	var fillDep func(n *verNode) int
	fillDep = func(n *verNode) int {
		max := 0
		for _, c := range n.children {
			d := fillDep(c)
			if c.rec.kind != payFull && c.v != h.latest && 1+d > max {
				max = 1 + d
			}
		}
		n.depBelow = max
		return max
	}
	for _, r := range roots {
		fillDep(r)
	}

	budget := lim
	var walk func(n *verNode, parentDepth int, parentContent []byte) error
	walk = func(n *verNode, parentDepth int, parentContent []byte) error {
		rec := &n.rec
		// Materialise this node from its parent's content.
		var content []byte
		switch rec.kind {
		case payFull:
			c, err := tx.heap.Read(rec.payload)
			if err != nil {
				return err
			}
			content = c
		case paySame:
			content = parentContent
		case payDelta:
			d, err := tx.heap.Read(rec.payload)
			if err != nil {
				return err
			}
			c, err := delta.Apply(parentContent, d)
			if err != nil {
				return err
			}
			content = c
		default:
			return fmt.Errorf("%w: payload kind %d", ErrCorrupt, rec.kind)
		}

		depth := 0
		dirty := false
		switch {
		case rec.kind == payFull:
			if !tx.demotable(n.v, h.latest, *rec, parentDepth, n.depBelow) {
				break
			}
			if budget <= 0 {
				stats.More = true
				break
			}
			saved, err := tx.demoteTo(rec, parentDepth, parentContent, content)
			if err != nil {
				return err
			}
			if saved > 0 {
				depth = parentDepth + 1
				dirty = true
				budget--
				stats.Demoted++
				stats.BytesSaved += int64(saved)
			}
		case n.v == h.latest || parentDepth+1 > tx.opts.AnchorInterval:
			// A dependent latest (only earlier code wrote one) or an
			// over-deep dependent: insert a full anchor here.
			if budget > 0 {
				if err := tx.setFull(rec, content); err != nil {
					return err
				}
				dirty = true
				budget--
				stats.Promoted++
			} else {
				// Budget cut: keep the (over-deep but readable) chain
				// and let the next pass anchor it.
				depth = parentDepth + 1
				if rec.depth != uint16(depth) {
					rec.depth = uint16(depth)
					dirty = true
				}
				stats.More = true
			}
		default:
			depth = parentDepth + 1
			if rec.depth != uint16(depth) {
				rec.depth = uint16(depth)
				dirty = true
			}
		}
		if dirty {
			if err := tx.storeVer(o, n.v, *rec); err != nil {
				return err
			}
		}
		for _, c := range n.children {
			if err := walk(c, depth, content); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0, nil); err != nil {
			return stats, err
		}
	}
	stats.Objects = 1
	if stats.Demoted+stats.Promoted > 0 {
		tx.saveRoots()
	}
	m := tx.e.m
	m.CompactObjects.Inc()
	m.DeltaDemotions.Add(uint64(stats.Demoted))
	m.DeltaPromotions.Add(uint64(stats.Promoted))
	m.DeltaBytesSaved.Add(uint64(stats.BytesSaved))
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

// DemoteVersion demotes one version through the routing layer (odeshell
// surface; tests use it to build precise shapes).
func (tx *Tx) DemoteVersion(o oid.OID, v oid.VID) (bool, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return false, err
	}
	h, err := b.loadHeader(o)
	if err != nil {
		return false, err
	}
	return b.demoteVersion(o, v, h.latest)
}

// PromoteVersion anchors one version as a full payload through the
// routing layer.
func (tx *Tx) PromoteVersion(o oid.OID, v oid.VID) (bool, error) {
	b, err := tx.shardW(tx.byO(o))
	if err != nil {
		return false, err
	}
	return b.promoteVersion(o, v)
}
