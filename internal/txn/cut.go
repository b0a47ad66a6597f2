// The read path. Every reader of a database shares one snapshot of it —
// the coordinator's current cut — for as long as nothing a reader could
// observe has changed: beginning a read takes a reference on the cut,
// ending it gives the reference back, and neither touches a shard. Only
// a commit can change what a snapshot holds, so it is the publications
// that pay: each one retires the cut, and the next reader builds the
// next (DESIGN.md §9.2, §15.5).
package txn

import (
	"runtime"
	"sync/atomic"

	"ode/internal/obs"
	"ode/internal/storage"
)

// cut is one consistent read snapshot of the whole database: the routing
// bundle and, per physical shard, a reader view pinned at that shard's
// durable epoch with its superblock decoded. It is immutable once built.
// The pins are taken at an even generation and kept only if the
// generation has not moved by the end: a two-phase publication or a
// routing flip holds the generation odd while it stores (beginPublish),
// so a cross-shard transaction is in a cut on all of its shards or on
// none, and the map matches the data. A served cut is the state at one
// instant — a prefix of the temporal order over acknowledged commits:
// with any commit it holds, it holds every commit acknowledged before
// that one began. No publisher takes a lock against the builder; the
// generation recheck discards any cut that a publication could have
// split (TestViewSeesAckedPrefix, TestPublishBracketHoldsBuildersOff).
type cut struct {
	rt    *routing
	views []*storage.TxView
	// gen is the (even) coordinator generation the builder read before
	// it pinned. The cut may be handed to a reader only while it still
	// equals the coordinator's: a single-shard publication bumps that
	// after storing its epoch, a multi-shard one before its first store
	// and again after its last, so an equal generation proves no
	// publication began or completed between the pins and the check.
	gen uint64
	// refs counts the open ReadTxs holding the cut, each on the stripe it
	// took its reference on (obs.Stripe): two readers on two CPUs begin
	// and end without writing one line, nor the line of the fields above
	// that every reader reads. The coordinator's reference is the cut
	// being installed and not retired. Once retired, the holder that
	// finds refs at zero unpins, and freed makes that happen once
	// (DESIGN.md §15.5).
	retired atomic.Bool
	freed   atomic.Bool
	onUnpin func(*cut) // Coordinator.unpinHook when the cut was built
	_       [56]byte
	refs    obs.Gauge
}

// acquire takes a reader's reference on stripe s unless the cut is
// retired. The add comes before the check: Go's atomics are sequentially
// consistent, so a reader that finds the cut not retired made its add
// before the retirer set the flag, and every sum read after that counts
// it. A reader that finds it retired gives the add back.
func (ct *cut) acquire(s int) bool {
	ct.refs.AddAt(s, 1)
	if ct.retired.Load() {
		ct.release(s)
		return false
	}
	return true
}

// release gives back a reference taken on stripe s.
func (ct *cut) release(s int) {
	ct.refs.AddAt(s, -1)
	if ct.retired.Load() {
		ct.unpinIfIdle()
	}
}

// retire drops the coordinator's reference; the caller is the one that
// swapped the cut out of Coordinator.cur.
func (ct *cut) retire() {
	ct.retired.Store(true)
	ct.unpinIfIdle()
}

// unpinIfIdle unpins a retired cut that no reader holds. After the
// retirement no acquire succeeds, so a zero sum is final: a reference
// taken before it is in the sum until its release is, and a refused
// acquire's add is in it only with its undo or alone. Whoever sees zero
// first — the retirer or the last holder out — unpins, exactly once.
func (ct *cut) unpinIfIdle() {
	if ct.refs.Load() == 0 && ct.freed.CompareAndSwap(false, true) {
		ct.unpin()
	}
}

// unpin ends the cut's reader views: each shard's epoch pin goes, and
// with it the snapshot pages retained for it.
func (ct *cut) unpin() {
	if ct.onUnpin != nil {
		ct.onUnpin(ct)
	}
	for i, v := range ct.views {
		ct.rt.ms[i].EndRead(v)
	}
}

// published records that what a new reader must observe has changed — a
// shard's durable epoch moved or the routing bundle was swapped — and
// retires the current cut. Every site that makes such a change calls it
// after the change is stored and before it acknowledges anyone, so a
// reader that begins after the acknowledgement finds the generation
// moved and cannot be handed a cut pinned before the change. The
// coordinator's reference goes with it: once the last reader holding the
// old cut ends, its pins are gone, so a stretch of commits with no
// reader retains no snapshot page. It adds 2, so inside another
// publisher's bracket the generation stays odd.
func (c *Coordinator) published() { c.retire(c.gen.Add(2)) }

// beginPublish and endPublish bracket a publication that stores more
// than one thing a reader must see together — a two-phase commit's
// epochs on every dirty shard, a routing bundle swap — so that no cut
// is built across it: the generation is odd in between, and builders
// wait for it to be even. Every bracket is taken under cmu, so two
// never overlap; no I/O runs inside one.
func (c *Coordinator) beginPublish() { c.gen.Add(1) }
func (c *Coordinator) endPublish()   { c.retire(c.gen.Add(1)) }

// retire drops the coordinator's reference on the current cut if it is
// older than generation g.
func (c *Coordinator) retire(g uint64) {
	if ct := c.cur.Load(); ct != nil && ct.gen < g && c.cur.CompareAndSwap(ct, nil) {
		ct.retire()
	}
}

// currentCut returns the current cut with a reference taken for the
// caller on stripe s, building and installing a new one when there is
// none or a publication has retired it. It builds only at an even
// generation, and waits out an open publication bracket to get one.
func (c *Coordinator) currentCut(s int) (*cut, error) {
	for {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		g := c.gen.Load()
		old := c.cur.Load()
		if old != nil && old.gen == g {
			if old.acquire(s) {
				return old, nil
			}
			continue // it has been retired since the load above
		}
		if g&1 != 0 {
			runtime.Gosched() // a bracket is storing; it does no I/O
			continue
		}
		ct, err := c.buildCut(g, s)
		if err != nil {
			return nil, err
		}
		// A publication between the generation load and the pins leaves
		// the cut holding state newer than its label says: handing it even
		// to this reader could show it a commit that a validly labelled
		// cut, pinned earlier and served to it next, does not have. And
		// one cut per generation is ever installed (the swap expects what
		// this builder saw), so two readers of one generation agree.
		if c.gen.Load() != g || !c.cur.CompareAndSwap(old, ct) {
			ct.unpin()
			continue
		}
		if old != nil {
			old.retire()
		}
		c.cm.ReadSnapshotBuilds.Inc()
		if c.gen.Load() != g {
			// A publisher that bumped the generation before the swap above
			// may have looked for a cut to retire before there was one. Its
			// bump is visible here, or this cut was to it: one of the two
			// retires it, so no stale cut keeps its pins while nobody reads.
			if c.cur.CompareAndSwap(ct, nil) {
				ct.retire()
			}
		}
		return ct, nil
	}
}

// buildCut pins every shard exactly as a reader used to for itself; see
// cut. The result carries the building reader's reference, on stripe s;
// installing it gives the coordinator its own. A cut that is never
// installed is unpinned directly.
func (c *Coordinator) buildCut(g uint64, s int) (*cut, error) {
	if c.buildHook != nil {
		c.buildHook()
	}
	rt := c.routing.Load()
	ct := &cut{rt: rt, gen: g, views: make([]*storage.TxView, len(rt.ms)), onUnpin: c.unpinHook}
	for i, m := range rt.ms {
		v, err := m.BeginRead()
		if err != nil {
			ct.views = ct.views[:i]
			ct.unpin()
			return nil, err
		}
		ct.views[i] = v
	}
	ct.refs.AddAt(s, 1)
	return ct, nil
}

// ReadTx is a coordinated read transaction: a reference on a cut. The
// views it hands out are this transaction's own handles on the cut's
// snapshot — they end with the transaction (ErrTxDone afterwards) while
// the pins they read through live on with the cut. A write transaction
// peeks at the shards it has not joined through one (WriteTx.View).
type ReadTx struct {
	ct     *cut
	stripe int         // the stripe of ct.refs its reference is on
	ended  atomic.Bool // ends every view handed out, at once
}

// View returns a view of shard s's snapshot. Each call makes a handle;
// a caller that keeps coming back to a shard keeps the handle.
func (r *ReadTx) View(s int) *storage.TxView {
	v := new(storage.TxView)
	r.ct.views[s].Share(v, &r.ended)
	return v
}

// Epoch returns shard s's epoch in the cut without making a view, or
// ErrTxDone once the transaction has ended.
func (r *ReadTx) Epoch(s int) (uint64, error) {
	if r.ended.Load() {
		return 0, storage.ErrTxDone
	}
	return r.ct.views[s].Epoch(), nil
}

// N returns the physical shard count; Map the shard map snapshot the
// cut was pinned under.
func (r *ReadTx) N() int                 { return len(r.ct.views) }
func (r *ReadTx) Map() *storage.ShardMap { return r.ct.rt.rmap }

// begin makes r a reference on the current cut, taken on the caller's
// stripe; see cut for what one snapshot guarantees. It does nothing per
// shard.
func (r *ReadTx) begin(c *Coordinator) error {
	r.stripe = obs.Stripe()
	ct, err := c.currentCut(r.stripe)
	if err != nil {
		return err
	}
	r.ct = ct
	return nil
}

// EndReadTx ends the transaction's views and gives its reference back.
func (c *Coordinator) EndReadTx(r *ReadTx) {
	c.cm.ActiveReaders.Dec()
	r.end()
}

// end ends every view handed out and gives the reference back.
func (r *ReadTx) end() {
	r.ended.Store(true)
	r.ct.release(r.stripe)
}

// Read runs fn against a snapshot of every shard.
func (c *Coordinator) Read(fn func(*ReadTx) error) error { return c.ReadIn(new(ReadTx), fn) }

// ReadIn is Read in a ReadTx the caller allocated, zero, as part of a
// frame of its own (core.ReadFrame), so a read allocates its handles
// once. Frames are not reused: r ends with fn, and a handle kept past it
// fails with ErrTxDone.
func (c *Coordinator) ReadIn(r *ReadTx, fn func(*ReadTx) error) error {
	if err := r.begin(c); err != nil {
		return err
	}
	c.cm.ReaderPins.Inc()
	c.cm.ActiveReaders.Inc()
	defer c.EndReadTx(r)
	return fn(r)
}
