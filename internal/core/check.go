package core

import (
	"encoding/binary"
	"fmt"

	"ode/internal/oid"
)

// CheckObject validates every structural invariant the paper's model
// implies for one object's version set:
//
//  1. the temporal chain (tprev/tnext) is a doubly-linked total order
//     over exactly the live versions, with strictly increasing stamps;
//  2. the object header's latest is the temporal maximum;
//  3. every dprev points at a live version of the same object;
//  4. the temporal index and vid index agree with the version records;
//  5. delta/shared payloads have a live parent and consistent depth;
//  6. every dprev precedes its child on the temporal chain, so the
//     derived-from relation is a forest and DChildren may look for a
//     version's children among its temporal successors.
//
// It is used by property tests, figure tests, and odedump --check.
func (tx *shardTx) CheckObject(o oid.OID) error {
	h, err := tx.loadHeader(o)
	if err != nil {
		return err
	}
	recs := map[oid.VID]verRec{}
	err = tx.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		v := oid.VID(binary.BigEndian.Uint64(k[8:16]))
		rec, err := decodeVerRec(val)
		if err != nil {
			return false, err
		}
		recs[v] = rec
		return true, nil
	})
	if err != nil {
		return err
	}
	if uint64(len(recs)) != h.count {
		return fmt.Errorf("%v: header count %d but %d version records", o, h.count, len(recs))
	}
	if _, ok := recs[h.latest]; !ok {
		return fmt.Errorf("%v: latest %v is not a live version", o, h.latest)
	}

	// (1) temporal chain; visited holds each version's chain position.
	cur := h.firstVID
	visited := map[oid.VID]int{}
	var prev oid.VID
	var prevStamp oid.Stamp
	for !cur.IsNil() {
		rec, ok := recs[cur]
		if !ok {
			return fmt.Errorf("%v: temporal chain reaches dead version %v", o, cur)
		}
		if _, ok := visited[cur]; ok {
			return fmt.Errorf("%v: temporal chain cycles at %v", o, cur)
		}
		visited[cur] = len(visited)
		if rec.tprev != prev {
			return fmt.Errorf("%v: %v.tprev = %v, want %v", o, cur, rec.tprev, prev)
		}
		if !prev.IsNil() && rec.stamp <= prevStamp {
			return fmt.Errorf("%v: stamps not strictly increasing at %v", o, cur)
		}
		prev, prevStamp = cur, rec.stamp
		cur = rec.tnext
	}
	if len(visited) != len(recs) {
		return fmt.Errorf("%v: temporal chain covers %d of %d versions", o, len(visited), len(recs))
	}
	// (2) latest is the temporal maximum (the chain's tail).
	if prev != h.latest {
		return fmt.Errorf("%v: chain tail %v but latest %v", o, prev, h.latest)
	}

	// (3) and (6): a live parent strictly earlier on the chain, which
	// also rules out derived-from cycles.
	for v, rec := range recs {
		if rec.dprev.IsNil() {
			continue
		}
		if _, ok := recs[rec.dprev]; !ok {
			return fmt.Errorf("%v: %v derived from dead version %v", o, v, rec.dprev)
		}
		if visited[rec.dprev] >= visited[v] {
			return fmt.Errorf("%v: %v derived from %v, which does not precede it temporally", o, v, rec.dprev)
		}
	}

	// (4) index agreement.
	for v, rec := range recs {
		raw, ok, err := tx.tempIdx.Get(tempKey(o, rec.stamp))
		if err != nil {
			return err
		}
		if !ok || oid.VID(binary.BigEndian.Uint64(raw)) != v {
			return fmt.Errorf("%v: temporal index missing/wrong for %v", o, v)
		}
		// The vid→oid entry lives on the shard the vid's VALUE routes to,
		// which after a migration need not be this object's shard.
		owner, err := tx.rt.Owner(v)
		if err != nil || owner != o {
			return fmt.Errorf("%v: vid index wrong for %v: %v %v", o, v, owner, err)
		}
	}

	// (5) payload sanity.
	for v, rec := range recs {
		switch rec.kind {
		case payFull:
			if rec.payload.IsNil() {
				return fmt.Errorf("%v: %v full payload with nil RID", o, v)
			}
			if rec.depth != 0 {
				return fmt.Errorf("%v: %v full payload with depth %d", o, v, rec.depth)
			}
		case paySame, payDelta:
			if rec.payload.IsNil() != (rec.kind == paySame) {
				return fmt.Errorf("%v: %v payload kind %d with record %v", o, v, rec.kind, rec.payload)
			}
			if rec.dprev.IsNil() {
				return fmt.Errorf("%v: %v dependent payload with no parent", o, v)
			}
			// Depth 0 is a full payload's; parent.depth+1 wraps to it at
			// the 16-bit limit.
			if parent := recs[rec.dprev]; rec.depth == 0 || rec.depth != parent.depth+1 {
				return fmt.Errorf("%v: %v depth %d but parent depth %d", o, v, rec.depth, parent.depth)
			}
		default:
			return fmt.Errorf("%v: %v unknown payload kind %d", o, v, rec.kind)
		}
		// Content must materialise.
		content, err := tx.readContent(o, rec)
		if err != nil {
			return fmt.Errorf("%v: %v unreadable: %w", o, v, err)
		}
		if uint64(len(content)) != rec.size {
			return fmt.Errorf("%v: %v size field %d but content %d", o, v, rec.size, len(content))
		}
	}
	return nil
}

// CheckAll validates every object in the database plus the structural
// health of each index tree.
func (tx *shardTx) CheckAll() error {
	for _, t := range []interface{ Check() error }{
		tx.objTable, tx.verIdx, tx.tempIdx, tx.catalog, tx.extent, tx.config, tx.vidIdx,
	} {
		if err := t.Check(); err != nil {
			return err
		}
	}
	var objs []oid.OID
	err := tx.objTable.Ascend(nil, nil, func(k, _ []byte) (bool, error) {
		objs = append(objs, oid.OID(binary.BigEndian.Uint64(k)))
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, o := range objs {
		if err := tx.CheckObject(o); err != nil {
			return err
		}
	}
	return nil
}

// checkVidIdxEntries validates this shard's vid→oid entries against the
// routed object state: every entry's object must exist (on whichever
// shard the map places it) and carry that version. CheckObject proves
// every live version HAS an entry; this sweep proves no entry outlives
// its version — the direction a mis-migrated reverse index fails in.
func (tx *shardTx) checkVidIdxEntries() error {
	return tx.vidIdx.Ascend(nil, nil, func(k, val []byte) (bool, error) {
		v := oid.VID(binary.BigEndian.Uint64(k))
		o := oid.OID(binary.BigEndian.Uint64(val))
		ob, err := tx.rt.shardR(tx.rt.byO(o))
		if err != nil {
			return false, err
		}
		if _, err := ob.loadVer(o, v); err != nil {
			return false, fmt.Errorf("shard %d vid index: %v → %v: %w", tx.s, v, o, err)
		}
		return true, nil
	})
}
