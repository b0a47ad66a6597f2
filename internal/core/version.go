package core

import (
	"encoding/binary"
	"fmt"

	"ode/internal/codec"
	"ode/internal/delta"
	"ode/internal/oid"
	"ode/internal/trigger"
)

// payload kinds in a version record.
const (
	payFull  = 0 // payload record holds the content verbatim
	payDelta = 1 // payload record holds a delta against dprev's content
	paySame  = 2 // content identical to dprev's; no payload record (only read: nothing writes one)
)

// verRec is the per-version record in the version index. The paper's two
// automatically maintained relationships live here: dprev (derived-from
// tree edge) and tprev/tnext (temporal chain links).
type verRec struct {
	stamp   oid.Stamp
	dprev   oid.VID // derived-from parent (nil for a root version)
	tprev   oid.VID // temporal predecessor among the object's versions
	tnext   oid.VID // temporal successor (nil for the latest)
	payload oid.RID // heap record holding content or delta (nil for paySame)
	kind    uint8
	depth   uint16 // materialisation links to the nearest full payload
	size    uint64 // content length in bytes
}

func (v *verRec) encode() []byte {
	b := make([]byte, 0, 64)
	b = codec.AppendUVarint(b, uint64(v.stamp))
	b = codec.AppendUVarint(b, uint64(v.dprev))
	b = codec.AppendUVarint(b, uint64(v.tprev))
	b = codec.AppendUVarint(b, uint64(v.tnext))
	rid := v.payload.Pack()
	b = append(b, rid[:]...)
	b = codec.AppendU8(b, v.kind)
	b = codec.AppendU16(b, v.depth)
	b = codec.AppendUVarint(b, v.size)
	return b
}

func decodeVerRec(b []byte) (verRec, error) {
	r := codec.NewReader(b)
	v := verRec{}
	v.stamp = oid.Stamp(r.UVarint())
	v.dprev = oid.VID(r.UVarint())
	v.tprev = oid.VID(r.UVarint())
	v.tnext = oid.VID(r.UVarint())
	ridRaw := r.Raw(6)
	if ridRaw != nil {
		v.payload = oid.UnpackRID(ridRaw)
	}
	v.kind = r.U8()
	v.depth = r.U16()
	v.size = r.UVarint()
	if r.Err() != nil {
		return verRec{}, fmt.Errorf("%w: version record: %v", ErrCorrupt, r.Err())
	}
	return v, nil
}

// loadVer returns (o, v)'s version record: from the memo, or decoded
// from the version index and memoised.
func (tx *shardTx) loadVer(o oid.OID, v oid.VID) (verRec, error) {
	var om *objMemo
	if tx.memo != nil {
		om = tx.memo.entry(o)
		if rec, ok := om.ver(v); ok {
			return rec, nil
		}
	}
	raw, ok, err := tx.verIdx.Get(verKey(o, v))
	if err != nil {
		return verRec{}, err
	}
	if !ok {
		return verRec{}, fmt.Errorf("%w: %v of %v", ErrNoVersion, v, o)
	}
	rec, err := decodeVerRec(raw)
	if err == nil && om != nil {
		om.setVer(v, rec)
	}
	return rec, err
}

// storeVer writes (o, v)'s version record through to the version index
// and the memo. A record equal to the memoised one is already in the
// tree and is not put again; o is invalidated in the dereference cache
// either way, as a payload rewritten in place leaves its record as it
// was.
func (tx *shardTx) storeVer(o oid.OID, v oid.VID, rec verRec) error {
	tx.invalidate(o)
	var om *objMemo
	if tx.memo != nil {
		om = tx.memo.entry(o)
		if old, ok := om.ver(v); ok && old == rec {
			return nil
		}
	}
	if err := tx.verIdx.Put(verKey(o, v), rec.encode()); err != nil {
		tx.forget(o)
		return err
	}
	if om != nil {
		om.setVer(v, rec)
	}
	return nil
}

// --- object lifecycle ---

// Create allocates a persistent object of type t with the given initial
// content — the paper's pnew. The object starts with a single root
// version (it is "unversioned" in the paper's sense: versioning costs
// nothing until the first newversion). Returns the oid and the root vid.
func (tx *shardTx) Create(t oid.TypeID, content []byte) (oid.OID, oid.VID, error) {
	if ok, err := tx.rt.typeExists(t); err != nil {
		return oid.NilOID, oid.NilVID, err
	} else if !ok {
		return oid.NilOID, oid.NilVID, fmt.Errorf("%w: %v", ErrNoType, t)
	}
	o := tx.newOID()
	v := tx.newVID()
	stamp := tx.newStamp()

	rid, err := tx.heap.Insert(content)
	if err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	rec := verRec{stamp: stamp, payload: rid, kind: payFull, size: uint64(len(content))}
	if err := tx.storeVer(o, v, rec); err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	h := objHeader{typ: t, latest: v, count: 1, firstVID: v, created: stamp}
	if err := tx.storeHeader(o, h); err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	if err := tx.rt.putVidIdx(v, o); err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	if err := tx.tempIdx.Put(tempKey(o, stamp), vidKey(v)); err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	if err := tx.extent.Put(extKey(t, o), nil); err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	tx.st.SetCounter(ctrObjects, tx.st.Counter(ctrObjects)+1)
	tx.st.SetCounter(ctrVersion, tx.st.Counter(ctrVersion)+1)
	tx.saveRoots()
	tx.bus.Fire(trigger.Event{Kind: trigger.KindCreate, Obj: o, VID: v, Type: t, Stamp: stamp, Tx: tx.rt})
	return o, v, nil
}

// --- content materialisation ---

// readContent materialises the content of (o, rec) by walking the delta
// chain down to the nearest full payload and applying the deltas back up.
// Iterative so that long chains cannot exhaust the stack; the chain
// length is bounded by Options.AnchorInterval via depth accounting anyway.
func (tx *shardTx) readContent(o oid.OID, rec verRec) ([]byte, error) {
	var chain [][]byte // deltas from rec down toward the full anchor
	cur := rec
	visited := uint64(1)
	for {
		switch cur.kind {
		case payFull:
			tx.e.m.DeltaChainLen.Observe(visited)
			base, err := tx.heap.Read(cur.payload)
			if err != nil {
				return nil, err
			}
			// Apply collected deltas in reverse (anchor-first) order.
			for i := len(chain) - 1; i >= 0; i-- {
				base, err = delta.Apply(base, chain[i])
				if err != nil {
					return nil, err
				}
			}
			return base, nil
		case paySame:
			// Content equals the parent's; nothing to collect.
		case payDelta:
			d, err := tx.heap.Read(cur.payload)
			if err != nil {
				return nil, err
			}
			chain = append(chain, d)
		default:
			return nil, fmt.Errorf("%w: payload kind %d", ErrCorrupt, cur.kind)
		}
		if cur.dprev.IsNil() {
			return nil, fmt.Errorf("%w: dependent payload with no parent", ErrCorrupt)
		}
		parent, err := tx.loadVer(o, cur.dprev)
		if err != nil {
			return nil, err
		}
		cur = parent
		visited++
	}
}

// ReadVersion returns the content of a specific version — the paper's
// specific-reference dereference (*vp on a version id): its record, and
// the payload chain applied back to a full anchor.
func (tx *shardTx) ReadVersion(o oid.OID, v oid.VID) ([]byte, error) {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return nil, err
	}
	return tx.readContent(o, rec)
}

// ReadLatest returns the latest version's content and its vid — the
// paper's generic-reference dereference (*p on an object id binds to the
// latest version at access time). The routing Tx probes and fills the
// dereference cache around it; the latest is full under the delta tier
// (DESIGN.md §14.2).
func (tx *shardTx) ReadLatest(o oid.OID) ([]byte, oid.VID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return nil, oid.NilVID, err
	}
	rec, err := tx.loadVer(o, h.latest)
	if err != nil {
		return nil, oid.NilVID, err
	}
	content, err := tx.readContent(o, rec)
	if err != nil {
		return nil, oid.NilVID, err
	}
	return content, h.latest, nil
}

// UpdateVersion overwrites the content of one version in place (no new
// version is created — in O++ a version is an object you may mutate
// through a specific reference). Children stored as deltas against this
// version are first converted to stand-alone payloads so their content
// is unaffected.
func (tx *shardTx) UpdateVersion(o oid.OID, v oid.VID, content []byte) error {
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return err
	}
	children, err := tx.detachDependents(o, v)
	if err != nil {
		return err
	}
	dependent := rec.kind != payFull
	if err := tx.setFull(&rec, content); err != nil {
		return err
	}
	if err := tx.storeVer(o, v, rec); err != nil {
		return err
	}
	h, err := tx.loadHeader(o)
	if err != nil {
		return err
	}
	if tx.opts.DeltaTier {
		// Under the delta tier, versions this rewrite let go cold are
		// demoted now, top down: the anchor v's chain hung from when v
		// stopped depending on it, v itself unless it is the latest,
		// then the children detachDependents made full.
		if dependent && rec.kind == payFull {
			if err := tx.demoteAnchorOf(o, rec.dprev); err != nil {
				return err
			}
		}
		if v != h.latest {
			if _, err := tx.demoteVersion(o, v); err != nil {
				return err
			}
		}
		for _, c := range children {
			if _, err := tx.demoteVersion(o, c); err != nil {
				return err
			}
		}
	}
	tx.saveRoots()
	tx.bus.Fire(trigger.Event{Kind: trigger.KindUpdate, Obj: o, VID: v, Type: h.typ, Stamp: rec.stamp, Tx: tx.rt})
	return nil
}

// UpdateLatest overwrites the latest version's content (generic-
// reference assignment).
func (tx *shardTx) UpdateLatest(o oid.OID, content []byte) (oid.VID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilVID, err
	}
	return h.latest, tx.UpdateVersion(o, h.latest, content)
}

// fixDepths recomputes the chain-depth hints of the dependent versions
// among children, D-children of a version whose own depth changed to
// depth, and of their dependent descendants. A child stored as a delta
// or shared payload has depth parent.depth+1; subtrees whose depth is
// already correct are pruned.
func (tx *shardTx) fixDepths(o oid.OID, children []oid.VID, depth uint16) error {
	for _, c := range children {
		crec, err := tx.loadVer(o, c)
		if err != nil {
			return err
		}
		if crec.kind == payFull {
			continue // its depth is 0 and its subtree hangs off it, unchanged
		}
		want := depth + 1
		if crec.depth == want {
			continue
		}
		crec.depth = want
		if err := tx.storeVer(o, c, crec); err != nil {
			return err
		}
		grand, err := tx.DChildren(o, c)
		if err != nil {
			return err
		}
		if err := tx.fixDepths(o, grand, want); err != nil {
			return err
		}
	}
	return nil
}

// detachDependents rewrites every child version whose payload depends on
// v's content (paySame or payDelta with dprev == v) as a full payload.
// It returns all of v's D-children, dependent or not.
func (tx *shardTx) detachDependents(o oid.OID, v oid.VID) ([]oid.VID, error) {
	children, err := tx.DChildren(o, v)
	if err != nil {
		return nil, err
	}
	for _, c := range children {
		crec, err := tx.loadVer(o, c)
		if err != nil {
			return nil, err
		}
		if crec.kind == payFull {
			continue
		}
		if err := tx.anchor(o, c, crec); err != nil {
			return nil, err
		}
	}
	return children, nil
}

// --- newversion ---

// NewVersion creates a new version derived from the object's latest
// version — the paper's newversion(oid). Returns the new vid.
func (tx *shardTx) NewVersion(o oid.OID) (oid.VID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilVID, err
	}
	return tx.newVersionFrom(o, h, h.latest)
}

// NewVersionFrom creates a new version derived from a specific base
// version — the paper's newversion(vid); parallel calls on different
// bases create the alternatives of §4.3.
func (tx *shardTx) NewVersionFrom(o oid.OID, base oid.VID) (oid.VID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilVID, err
	}
	return tx.newVersionFrom(o, h, base)
}

func (tx *shardTx) newVersionFrom(o oid.OID, h objHeader, base oid.VID) (oid.VID, error) {
	baseRec, err := tx.loadVer(o, base)
	if err != nil {
		return oid.NilVID, err
	}
	v := tx.newVID()
	stamp := tx.newStamp()

	// The new version starts as a full copy of its base: the latest is
	// the hot read, and the delta tier demotes it once it goes cold.
	content, err := tx.readContent(o, baseRec)
	if err != nil {
		return oid.NilVID, err
	}
	rid, err := tx.heap.Insert(content)
	if err != nil {
		return oid.NilVID, err
	}
	rec := verRec{
		stamp:   stamp,
		dprev:   base,
		tprev:   h.latest,
		payload: rid,
		kind:    payFull,
		size:    baseRec.size,
	}
	if err := tx.storeVer(o, v, rec); err != nil {
		return oid.NilVID, err
	}
	// Temporal chain: the old latest gains a successor.
	prev := h.latest
	prevRec, err := tx.loadVer(o, prev)
	if err != nil {
		return oid.NilVID, err
	}
	prevRec.tnext = v
	if err := tx.storeVer(o, prev, prevRec); err != nil {
		return oid.NilVID, err
	}
	h.latest = v
	h.count++
	if err := tx.storeHeader(o, h); err != nil {
		return oid.NilVID, err
	}
	if err := tx.rt.putVidIdx(v, o); err != nil {
		return oid.NilVID, err
	}
	if err := tx.tempIdx.Put(tempKey(o, stamp), vidKey(v)); err != nil {
		return oid.NilVID, err
	}
	tx.st.SetCounter(ctrVersion, tx.st.Counter(ctrVersion)+1)
	// The base just gained a D-child, and the old latest stopped being
	// the write target: under the delta tier each full payload is
	// re-encoded as a delta against its own D-parent right away
	// (DESIGN.md §14), the base first, as it is never below the old
	// latest.
	if tx.opts.DeltaTier {
		if _, err := tx.demoteVersion(o, base); err != nil {
			return oid.NilVID, err
		}
		if prev != base {
			if _, err := tx.demoteVersion(o, prev); err != nil {
				return oid.NilVID, err
			}
		}
	}
	tx.saveRoots()
	tx.bus.Fire(trigger.Event{
		Kind: trigger.KindNewVersion, Obj: o, VID: v, Prev: base,
		Type: h.typ, Stamp: stamp, Tx: tx.rt,
	})
	return v, nil
}

// --- pdelete ---

// DeleteVersion removes a single version — the paper's pdelete(vid).
// The derivation tree is spliced: children of the deleted version are
// re-parented onto its derived-from parent; the temporal chain is
// likewise spliced. If the deleted version was the latest, the object id
// re-binds to the temporally preceding version. Deleting the only
// version deletes the object.
func (tx *shardTx) DeleteVersion(o oid.OID, v oid.VID) error {
	h, err := tx.loadHeader(o)
	if err != nil {
		return err
	}
	if h.count == 1 {
		return tx.DeleteObject(o)
	}
	rec, err := tx.loadVer(o, v)
	if err != nil {
		return err
	}
	// Children depending on v's bytes must be made self-sufficient, then
	// re-parented onto v's parent.
	children, err := tx.detachDependents(o, v)
	if err != nil {
		return err
	}
	for _, c := range children {
		crec, err := tx.loadVer(o, c)
		if err != nil {
			return err
		}
		crec.dprev = rec.dprev
		if err := tx.storeVer(o, c, crec); err != nil {
			return err
		}
	}
	// Splice the temporal chain.
	if !rec.tprev.IsNil() {
		p, err := tx.loadVer(o, rec.tprev)
		if err != nil {
			return err
		}
		p.tnext = rec.tnext
		if err := tx.storeVer(o, rec.tprev, p); err != nil {
			return err
		}
	}
	if !rec.tnext.IsNil() {
		n, err := tx.loadVer(o, rec.tnext)
		if err != nil {
			return err
		}
		n.tprev = rec.tprev
		if err := tx.storeVer(o, rec.tnext, n); err != nil {
			return err
		}
	}
	if h.latest == v {
		h.latest = rec.tprev
	}
	if h.firstVID == v {
		h.firstVID = rec.tnext
	}
	h.count--
	if err := tx.storeHeader(o, h); err != nil {
		return err
	}
	if !rec.payload.IsNil() {
		if err := tx.heap.Delete(rec.payload); err != nil {
			return err
		}
	}
	if err := tx.dropAnnotations(o, v); err != nil {
		return err
	}
	tx.forget(o)
	if _, err := tx.verIdx.Delete(verKey(o, v)); err != nil {
		return err
	}
	if err := tx.rt.delVidIdx(v); err != nil {
		return err
	}
	if _, err := tx.tempIdx.Delete(tempKey(o, rec.stamp)); err != nil {
		return err
	}
	tx.st.SetCounter(ctrVersion, tx.st.Counter(ctrVersion)-1)
	if tx.opts.DeltaTier {
		if err := tx.demoteAfterDelete(o, h.latest, rec, children); err != nil {
			return err
		}
	}
	tx.saveRoots()
	tx.bus.Fire(trigger.Event{Kind: trigger.KindDeleteVersion, Obj: o, VID: v, Type: h.typ, Stamp: rec.stamp, Tx: tx.rt})
	return nil
}

// demoteAfterDelete restores the delta tier's shape after DeleteVersion
// removed the version rec described; latest is the object's latest
// version now. A latest rebound onto a dependent version is anchored,
// so the hot dereference target stays a full payload. Chains that ran
// through the deleted version, or through the rebound latest, got
// shorter, so the anchors they hung from get another try; then the
// deleted version's children, which detachDependents made full and the
// splice hung off its D-parent, are re-encoded against that parent.
func (tx *shardTx) demoteAfterDelete(o oid.OID, latest oid.VID, rec verRec, children []oid.VID) error {
	if rec.tnext.IsNil() {
		lrec, err := tx.loadVer(o, latest)
		if err != nil {
			return err
		}
		if lrec.kind != payFull {
			if err := tx.anchor(o, latest, lrec); err != nil {
				return err
			}
			if err := tx.demoteAnchorOf(o, lrec.dprev); err != nil {
				return err
			}
		}
	}
	if !rec.dprev.IsNil() {
		if err := tx.demoteAnchorOf(o, rec.dprev); err != nil {
			return err
		}
	}
	for _, c := range children {
		if _, err := tx.demoteVersion(o, c); err != nil {
			return err
		}
	}
	return nil
}

// DeleteObject removes an object and all its versions — the paper's
// pdelete(oid).
func (tx *shardTx) DeleteObject(o oid.OID) error {
	h, err := tx.loadHeader(o)
	if err != nil {
		return err
	}
	type entry struct {
		v   oid.VID
		rec verRec
	}
	tx.forget(o)
	var versions []entry
	err = tx.verIdx.AscendPrefix(objKey(o), func(k, val []byte) (bool, error) {
		v := oid.VID(binary.BigEndian.Uint64(k[8:16]))
		rec, err := decodeVerRec(val)
		if err != nil {
			return false, err
		}
		versions = append(versions, entry{v, rec})
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, en := range versions {
		if !en.rec.payload.IsNil() {
			if err := tx.heap.Delete(en.rec.payload); err != nil {
				return err
			}
		}
		if _, err := tx.verIdx.Delete(verKey(o, en.v)); err != nil {
			return err
		}
		if err := tx.rt.delVidIdx(en.v); err != nil {
			return err
		}
		if _, err := tx.tempIdx.Delete(tempKey(o, en.rec.stamp)); err != nil {
			return err
		}
	}
	if err := tx.dropAllAnnotations(o); err != nil {
		return err
	}
	if _, err := tx.objTable.Delete(objKey(o)); err != nil {
		return err
	}
	if _, err := tx.extent.Delete(extKey(h.typ, o)); err != nil {
		return err
	}
	tx.st.SetCounter(ctrObjects, tx.st.Counter(ctrObjects)-1)
	tx.st.SetCounter(ctrVersion, tx.st.Counter(ctrVersion)-uint64(len(versions)))
	tx.saveRoots()
	tx.bus.Fire(trigger.Event{Kind: trigger.KindDeleteObject, Obj: o, Type: h.typ, Tx: tx.rt})
	return nil
}
