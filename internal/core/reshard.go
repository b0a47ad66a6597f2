package core

// Online resharding, engine half. The transaction layer owns the
// orchestration (txn.Coordinator.Reshard: growing the physical layout,
// flipping the logical count, committing one map flip per migrated
// chunk); this file supplies the three hooks that know what a shard's
// data actually IS:
//
//   - reshardInit provisions every shard that will allocate under the
//     target count: fresh shards get the seven engine trees, revived
//     shards (a split after an earlier merge) get their unminted id
//     tail back;
//   - reshardMoves plans the range migrations from the CURRENT map, so
//     a reshard interrupted by a crash resumes by replanning — every
//     rule is a function of the map alone, never of the old count;
//   - migrateChunk copies one bounded slice of objects and vid-index
//     entries from source to destination inside the caller's write
//     transaction, so the chunk's data motion and its map flip commit
//     atomically through the ordinary 2PC path.
//
// An object moves whole: header, version records, payload heap records
// (delta chains never cross objects), temporal-index entries, extent
// entry and annotations all travel together. The vid→oid reverse index
// routes by vid VALUE, so its entries in the moving range migrate
// independently of the objects they point at.

import (
	"encoding/binary"
	"fmt"

	"ode/internal/btree"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

// Chunk bounds: one migration transaction moves at most this many
// objects and this many vid-index entries. Small enough to keep the
// per-chunk write set (and writer-lock hold time on both shards)
// bounded under live traffic; large enough that a reshard is not
// dominated by per-transaction commit cost.
const (
	reshardChunkObjects  = 64
	reshardChunkVersions = 256
)

// Reshard changes the database's logical shard count to target while
// serving traffic, migrating data in small transactional chunks. See
// txn.Coordinator.Reshard for the protocol and crash-safety argument.
func (e *Engine) Reshard(target int) error {
	return e.c.Reshard(target, txn.ReshardHooks{
		Init:    e.reshardInit,
		Moves:   e.reshardMoves,
		Migrate: e.migrateChunk,
	})
}

// ReshardProgress reports the live progress of an in-flight Reshard.
func (e *Engine) ReshardProgress() txn.ReshardProgress {
	return e.c.ReshardProgress()
}

// reshardInit makes every shard below target allocatable: fresh shards
// (just created by the grow step) get the full engine tree set, and
// revived shards — slots that allocated before an earlier merge folded
// them away — get back the tail of their id space past everything they
// ever minted. Runs as one ordinary write transaction; the tail
// assignments ride the transaction's shard-map flip.
func (e *Engine) reshardInit(target int) error {
	return e.c.Write(func(w *txn.WriteTx) error {
		m := w.Map()
		changed := false
		for s := 0; s < target; s++ {
			if m.Allocatable(s) {
				continue
			}
			v, err := w.Join(s)
			if err != nil {
				return err
			}
			lo := storage.SlotBase(s)
			if v.Root(rootObjTable) == oid.NilPage {
				if err := createTrees(v); err != nil {
					return err
				}
			} else {
				// Revived shard: ids it minted before the merge may live
				// anywhere now, so only the slot tail past its counter
				// high-water mark is safely its own again.
				max := v.Counter(ctrOID)
				if c := v.Counter(ctrVID); c > max {
					max = c
				}
				lo += max + 1
			}
			hi := storage.SlotEnd(s) // 0 for the top slot: end of id space
			if hi != 0 && lo >= hi {
				continue // slot's id space exhausted; stays non-allocatable
			}
			m = m.Assign(lo, hi, s)
			changed = true
		}
		if changed {
			w.SetShardMap(m)
		}
		return nil
	})
}

// reshardMoves plans the range migrations that bring the CURRENT map to
// the target shape. Two mandatory rules, both functions of the map
// alone so an interrupted reshard replans correctly on resume:
//
//   - merge: every range owned by a shard >= target folds onto shard
//     owner%target;
//   - restoration: a range lying in slot s's home id space but owned by
//     a LOWER shard moves back to s when s allocates again (s < target)
//     — an earlier merge parked it there; owner > s means a deliberate
//     load-balance placement and is left alone.
//
// Plus one best-effort rule that is deliberately NOT resume-safe (it
// reads the pre-split count, which a resumed run no longer sees): on a
// split, the upper half of each old shard's minted ids moves to its new
// partner shard, so a split actually spreads existing load.
func (e *Engine) reshardMoves(oldN, target int) ([]txn.ReshardStep, error) {
	var steps []txn.ReshardStep
	ranges := e.c.Map().Ranges()
	for i, r := range ranges {
		rHi := uint64(0) // 0 = end of id space
		if i+1 < len(ranges) {
			rHi = ranges[i+1].Start
		}
		if r.Shard >= target {
			steps = append(steps, txn.ReshardStep{
				Lo: r.Start, Hi: rHi, Src: r.Shard, Dst: r.Shard % target,
			})
			continue
		}
		// Restoration: clip the range against the home span of every
		// revived slot above its owner.
		s := storage.SlotOf(r.Start)
		if s <= r.Shard {
			s = r.Shard + 1
		}
		for ; s < target; s++ {
			homeLo, homeHi := storage.SlotBase(s), storage.SlotEnd(s)
			if rHi != 0 && homeLo >= rHi {
				break // range ends before this slot
			}
			lo := r.Start
			if homeLo > lo {
				lo = homeLo
			}
			hi := rHi
			if hi == 0 || (homeHi != 0 && homeHi < hi) {
				hi = homeHi
			}
			if hi != 0 && lo >= hi {
				continue
			}
			steps = append(steps, txn.ReshardStep{Lo: lo, Hi: hi, Src: r.Shard, Dst: s})
		}
	}
	// Load-balance on a split: shard s hands the upper half of its minted
	// ids to its new partner s+oldN. Skipped entirely on resume (then
	// oldN == target) and for partners beyond the target.
	if target > oldN {
		err := e.c.Read(func(rd *txn.ReadTx) error {
			for s := 0; s < oldN && s+oldN < target; s++ {
				v := rd.View(s)
				// Cut at the OBJECT-counter midpoint — vid counters run
				// far ahead of oid counters (every version mints one), so
				// a max-counter midpoint would land past every object and
				// move only reverse-index entries. The range still runs to
				// the counter high-water mark so the vid tail travels too.
				oidRaw := v.Counter(ctrOID)
				if oidRaw < 2 {
					continue // nothing worth splitting
				}
				maxRaw := oidRaw
				if c := v.Counter(ctrVID); c > maxRaw {
					maxRaw = c
				}
				steps = append(steps, txn.ReshardStep{
					Lo:  storage.SlotBase(s) + oidRaw/2,
					Hi:  storage.SlotBase(s) + maxRaw + 1,
					Src: s,
					Dst: s + oldN,
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return steps, nil
}

// migrateChunk moves one bounded slice of step's range — objects and
// vid-index entries with ids in [cursor, boundary) — from step.Src to
// step.Dst inside the caller's write transaction. The returned boundary
// is chosen so the chunk never exceeds reshardChunkObjects objects or
// reshardChunkVersions vid entries: the smaller of the two cut points
// (0 meaning the range ran out at the end of the id space).
func (e *Engine) migrateChunk(w *txn.WriteTx, step txn.ReshardStep, cursor uint64) (txn.MigrateResult, error) {
	tx := e.writeTx(w)
	// Join both shards up front in ascending order: the migration then
	// never joins below a held shard mid-copy.
	lo, hi := step.Src, step.Dst
	if lo > hi {
		lo, hi = hi, lo
	}
	if _, err := tx.shardW(lo); err != nil {
		return txn.MigrateResult{}, err
	}
	if _, err := tx.shardW(hi); err != nil {
		return txn.MigrateResult{}, err
	}
	src, dst := tx.shards[step.Src], tx.shards[step.Dst]

	oids, err := collectRangeIDs(src.objTable, cursor, step.Hi, reshardChunkObjects)
	if err != nil {
		return txn.MigrateResult{}, err
	}
	vids, err := collectRangeIDs(src.vidIdx, cursor, step.Hi, reshardChunkVersions)
	if err != nil {
		return txn.MigrateResult{}, err
	}
	// Cut points: where each collection would overflow its chunk bound,
	// or the end of the range (step.Hi, possibly 0 = end of id space).
	oLim, vLim := step.Hi, step.Hi
	if len(oids) > reshardChunkObjects {
		oLim = oids[reshardChunkObjects]
		oids = oids[:reshardChunkObjects]
	}
	if len(vids) > reshardChunkVersions {
		vLim = vids[reshardChunkVersions]
		vids = vids[:reshardChunkVersions]
	}
	bound := oLim
	if bound == 0 || (vLim != 0 && vLim < bound) {
		bound = vLim
	}

	res := txn.MigrateResult{Boundary: bound}
	for _, id := range oids {
		if bound != 0 && id >= bound {
			continue
		}
		nv, err := moveObject(src, dst, oid.OID(id))
		if err != nil {
			return txn.MigrateResult{}, err
		}
		res.Objects++
		res.Versions += nv
	}
	for _, id := range vids {
		if bound != 0 && id >= bound {
			continue
		}
		if err := moveVidEntry(src, dst, oid.VID(id)); err != nil {
			return txn.MigrateResult{}, err
		}
	}
	src.saveRoots()
	dst.saveRoots()
	return res, nil
}

// collectRangeIDs returns up to limit+1 distinct 8-byte-prefixed ids in
// [lo, hi) from t, in order (hi == 0 means unbounded). The limit+1'th
// id, when present, becomes the chunk's cut point.
func collectRangeIDs(t *btree.Tree, lo, hi uint64, limit int) ([]uint64, error) {
	var from, to [8]byte
	binary.BigEndian.PutUint64(from[:], lo)
	var toKey []byte
	if hi != 0 {
		binary.BigEndian.PutUint64(to[:], hi)
		toKey = to[:]
	}
	var out []uint64
	err := t.Ascend(from[:], toKey, func(k, _ []byte) (bool, error) {
		id := binary.BigEndian.Uint64(k[:8])
		if len(out) > 0 && out[len(out)-1] == id {
			return true, nil
		}
		out = append(out, id)
		return len(out) <= limit, nil
	})
	return out, err
}

// moveObject transplants one whole object from src to dst: header,
// version records (re-homing each payload heap record and rewriting its
// RID; shared payloads move once), temporal-index entries, extent entry
// and annotations. Returns the number of version records moved.
func moveObject(src, dst *shardTx, o oid.OID) (int, error) {
	hraw, ok, err := src.objTable.Get(objKey(o))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: migrating %v", ErrNoObject, o)
	}
	h, err := decodeObjHeader(hraw)
	if err != nil {
		return 0, err
	}
	src.forget(o)
	dst.forget(o)

	type entry struct{ k, val []byte }
	var vers []entry
	err = src.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		vers = append(vers, entry{append([]byte(nil), k...), append([]byte(nil), val...)})
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	movedRID := map[oid.RID]oid.RID{}
	for _, ve := range vers {
		rec, err := decodeVerRec(ve.val)
		if err != nil {
			return 0, err
		}
		if !rec.payload.IsNil() {
			nrid, done := movedRID[rec.payload]
			if !done {
				raw, err := src.heap.Read(rec.payload)
				if err != nil {
					return 0, err
				}
				nrid, err = dst.heap.Insert(raw)
				if err != nil {
					return 0, err
				}
				if err := src.heap.Delete(rec.payload); err != nil {
					return 0, err
				}
				movedRID[rec.payload] = nrid
			}
			rec.payload = nrid
		}
		if err := dst.verIdx.Put(ve.k, rec.encode()); err != nil {
			return 0, err
		}
		if _, err := src.verIdx.Delete(ve.k); err != nil {
			return 0, err
		}
	}

	var temps []entry
	err = src.tempIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		temps = append(temps, entry{append([]byte(nil), k...), append([]byte(nil), val...)})
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	for _, te := range temps {
		if err := dst.tempIdx.Put(te.k, te.val); err != nil {
			return 0, err
		}
		if _, err := src.tempIdx.Delete(te.k); err != nil {
			return 0, err
		}
	}

	var annKeys [][]byte
	err = src.config.AscendPrefix(annObjPrefix(o), func(k, _ []byte) (bool, error) {
		annKeys = append(annKeys, append([]byte(nil), k...))
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	for _, k := range annKeys {
		raw, ok, err := src.getConfigValue(k)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		if err := dst.putConfigValue(k, raw); err != nil {
			return 0, err
		}
		if err := src.deleteConfigValue(k); err != nil {
			return 0, err
		}
	}

	if err := dst.extent.Put(extKey(h.typ, o), nil); err != nil {
		return 0, err
	}
	if _, err := src.extent.Delete(extKey(h.typ, o)); err != nil {
		return 0, err
	}
	if err := dst.objTable.Put(objKey(o), hraw); err != nil {
		return 0, err
	}
	if _, err := src.objTable.Delete(objKey(o)); err != nil {
		return 0, err
	}

	src.st.SetCounter(ctrObjects, src.st.Counter(ctrObjects)-1)
	dst.st.SetCounter(ctrObjects, dst.st.Counter(ctrObjects)+1)
	src.st.SetCounter(ctrVersion, src.st.Counter(ctrVersion)-uint64(len(vers)))
	dst.st.SetCounter(ctrVersion, dst.st.Counter(ctrVersion)+uint64(len(vers)))
	return len(vers), nil
}

// moveVidEntry transplants one vid→oid reverse-index entry. The entry
// routes by the vid's value, independent of where its object lives.
func moveVidEntry(src, dst *shardTx, v oid.VID) error {
	raw, ok, err := src.vidIdx.Get(vidKey(v))
	if err != nil || !ok {
		return err
	}
	if err := dst.vidIdx.Put(vidKey(v), append([]byte(nil), raw...)); err != nil {
		return err
	}
	_, err = src.vidIdx.Delete(vidKey(v))
	return err
}
