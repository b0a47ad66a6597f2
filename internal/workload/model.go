package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ode"
)

// traceCap bounds the per-object op-trace ring kept for violation
// repros.
const traceCap = 48

// object is the reference model of one versioned object: the live
// version set in temporal order, each version's expected content, stamp
// and derived-from parent. It replicates the kernel semantics of
// internal/core exactly:
//
//   - newversion(base) appends the new version at the temporal maximum
//     (tprev = old latest regardless of base) with content identical to
//     base;
//   - pdelete(vid) splices: D-children re-parent onto the deleted
//     version's Dprev, the temporal chain closes over the hole, and the
//     object id re-binds to the temporal predecessor when the latest
//     dies;
//   - as-of(s) answers with the live version of largest stamp ≤ s.
//
// The mutex is the oracle's consistency protocol (see the package
// comment): held by the owning worker across mutation+mirror and across
// each validated read.
type object struct {
	mu  sync.Mutex
	idx int
	oid ode.OID

	order   []ode.VID             // live versions, temporal (stamp) order
	stamp   map[ode.VID]ode.Stamp // creation stamp per live version
	content map[ode.VID][]byte    // expected payload per live version
	dprev   map[ode.VID]ode.VID   // derived-from parent (0 = root)

	// minStamp/maxStamp track the stamp range ever observed (including
	// deleted versions) so as-of probes can straddle both edges.
	minStamp, maxStamp ode.Stamp

	trace  []string
	traceN int
}

func newObject(idx int, o ode.OID) *object {
	return &object{
		idx:     idx,
		oid:     o,
		stamp:   map[ode.VID]ode.Stamp{},
		content: map[ode.VID][]byte{},
		dprev:   map[ode.VID]ode.VID{},
	}
}

// tracef appends one line to the object's bounded op trace.
func (ob *object) tracef(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if len(ob.trace) == traceCap {
		copy(ob.trace, ob.trace[1:])
		ob.trace[traceCap-1] = line
	} else {
		ob.trace = append(ob.trace, line)
	}
	ob.traceN++
}

func (ob *object) latest() ode.VID { return ob.order[len(ob.order)-1] }

// randLive returns a uniformly random live version.
func (ob *object) randLive(rng *rand.Rand) ode.VID {
	return ob.order[rng.Intn(len(ob.order))]
}

func (ob *object) noteStamp(s ode.Stamp) {
	if ob.minStamp == 0 || s < ob.minStamp {
		ob.minStamp = s
	}
	if s > ob.maxStamp {
		ob.maxStamp = s
	}
}

// applyCreate mirrors the root version made by Create.
func (ob *object) applyCreate(v ode.VID, s ode.Stamp, content []byte) {
	ob.order = append(ob.order, v)
	ob.stamp[v] = s
	ob.content[v] = content
	ob.dprev[v] = 0
	ob.noteStamp(s)
}

// applyNewVersion mirrors newversion(base): the new version is always
// the temporal maximum and starts with content identical to its base.
func (ob *object) applyNewVersion(base, v ode.VID, s ode.Stamp) {
	ob.order = append(ob.order, v)
	ob.stamp[v] = s
	ob.content[v] = append([]byte(nil), ob.content[base]...)
	ob.dprev[v] = base
	ob.noteStamp(s)
}

// applyUpdate mirrors an in-place content overwrite of one version.
func (ob *object) applyUpdate(v ode.VID, content []byte) {
	ob.content[v] = content
}

// applyDelete mirrors pdelete(vid): children re-parent onto the deleted
// version's parent and the version leaves the temporal order (the
// harness never deletes the last version, which would delete the
// object).
func (ob *object) applyDelete(v ode.VID) {
	parent := ob.dprev[v]
	for c, p := range ob.dprev {
		if p == v {
			ob.dprev[c] = parent
		}
	}
	for i, x := range ob.order {
		if x == v {
			ob.order = append(ob.order[:i], ob.order[i+1:]...)
			break
		}
	}
	delete(ob.stamp, v)
	delete(ob.content, v)
	delete(ob.dprev, v)
}

// expectAsOf answers as-of(s) from the model: the live version with the
// largest stamp ≤ s. order is stamp-ascending, so scan from the tail.
func (ob *object) expectAsOf(s ode.Stamp) (ode.VID, bool) {
	for i := len(ob.order) - 1; i >= 0; i-- {
		if ob.stamp[ob.order[i]] <= s {
			return ob.order[i], true
		}
	}
	return 0, false
}

// expectHistory is the derivation chain from v back to the root, v
// first.
func (ob *object) expectHistory(v ode.VID) []ode.VID {
	var out []ode.VID
	for v != 0 {
		out = append(out, v)
		v = ob.dprev[v]
	}
	return out
}

// expectDChildren lists the live versions directly derived from v, in
// vid order, which the kernel promises whichever way it found them.
func (ob *object) expectDChildren(v ode.VID) []ode.VID {
	var out []ode.VID
	for c, p := range ob.dprev {
		if p == v {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// expectLeaves lists the live versions with no D-children, in vid order.
func (ob *object) expectLeaves() []ode.VID {
	hasChild := map[ode.VID]bool{}
	for _, p := range ob.dprev {
		if p != 0 {
			hasChild[p] = true
		}
	}
	var out []ode.VID
	for _, v := range ob.order {
		if !hasChild[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// eqVIDs reports slice equality.
func eqVIDs(a, b []ode.VID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
