package core

import "ode/internal/oid"

// recMemo is a write bundle's memo of the object headers and version
// records it has decoded or stored (DESIGN.md §15.6). It is
// write-through: storeHeader and storeVer put the record in the tree and
// then here, so an entry always equals what the tree holds under its key,
// and loadHeader and loadVer reach the tree once per record per
// transaction. The trees stay the only source of truth. The few paths
// that change records without the store helpers — DeleteVersion,
// DeleteObject and a reshard's moveObject — drop the object's entries
// (shardTx.forget). The memo lives and dies with its bundle, and a
// bundle with its transaction attempt: a restart or a rollback makes new
// bundles or none. Read-only bundles keep no memo.
//
// The first memoInline objects are held in the bundle itself, so a
// transaction over one or two objects allocates nothing for its memo; a
// bulk transaction spills to a map, which is emptied, not grown, past
// memoMaxObjects.
type recMemo struct {
	n     int
	small [memoInline]objMemo
	big   map[oid.OID]*objMemo
}

const (
	memoInline     = 2
	memoMaxObjects = 4096
	// memoVersions is how many version records an object's entry holds;
	// past it, a new record takes the place of an old one.
	memoVersions = 6
)

// objMemo is what the memo holds of one object: its header, if loaded
// or stored, and up to memoVersions of its version records.
type objMemo struct {
	o      oid.OID
	hasHdr bool
	h      objHeader
	nv     int // version records seen; the first memoVersions fill vers
	vers   [memoVersions]verMemo
}

type verMemo struct {
	v   oid.VID
	rec verRec
}

// entry returns o's entry, making an empty one if there is none.
func (m *recMemo) entry(o oid.OID) *objMemo {
	for i := 0; i < m.n; i++ {
		if m.small[i].o == o {
			return &m.small[i]
		}
	}
	if m.n < memoInline {
		m.small[m.n] = objMemo{o: o}
		m.n++
		return &m.small[m.n-1]
	}
	if om := m.big[o]; om != nil {
		return om
	}
	if m.big == nil {
		m.big = make(map[oid.OID]*objMemo)
	} else if len(m.big) >= memoMaxObjects {
		clear(m.big)
	}
	om := &objMemo{o: o}
	m.big[o] = om
	return om
}

// drop forgets everything the memo holds of o.
func (m *recMemo) drop(o oid.OID) {
	for i := 0; i < m.n; i++ {
		if m.small[i].o == o {
			m.small[i] = objMemo{o: o}
			return
		}
	}
	delete(m.big, o)
}

// ver returns the memoised record of version v, if there is one.
func (om *objMemo) ver(v oid.VID) (verRec, bool) {
	for i := 0; i < min(om.nv, memoVersions); i++ {
		if om.vers[i].v == v {
			return om.vers[i].rec, true
		}
	}
	return verRec{}, false
}

// setVer memoises rec as version v's record.
func (om *objMemo) setVer(v oid.VID, rec verRec) {
	for i := 0; i < min(om.nv, memoVersions); i++ {
		if om.vers[i].v == v {
			om.vers[i].rec = rec
			return
		}
	}
	om.vers[om.nv%memoVersions] = verMemo{v, rec}
	om.nv++
}
