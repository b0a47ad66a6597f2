// The read path. Every reader of a database shares one snapshot of it —
// the coordinator's current cut — for as long as nothing a reader could
// observe has changed: beginning a read takes a reference on the cut,
// ending it gives the reference back, and neither touches a shard. Only
// a commit can change what a snapshot holds, so it is the publications
// that pay: each one retires the cut, and the next reader builds the
// next (DESIGN.md §9.2, §15.5).
package txn

import (
	"sync/atomic"

	"ode/internal/storage"
)

// cut is one consistent read snapshot of the whole database: the routing
// bundle and, per physical shard, a reader view pinned at that shard's
// durable epoch with its superblock decoded. It is immutable once built.
// The pins are taken under pmu's read side, which excludes two-phase
// publication and routing flips: a cross-shard transaction is in a cut on
// all of its shards or on none, and the map matches the data. A served
// cut is the state at one instant — a prefix of the temporal order over
// acknowledged commits: with any commit it holds, it holds every commit
// acknowledged before that one began. Single-shard commits take no lock
// against the builder; the generation recheck (gen) discards any cut
// that a publication acknowledged mid-build could have split
// (TestViewSeesAckedPrefix).
type cut struct {
	rt    *routing
	views []*storage.TxView
	// gen is the coordinator's generation the builder read before it
	// pinned. The cut may be handed to a reader only while it still equals
	// the coordinator's: every publication bumps that after storing its
	// epoch, so an equal generation proves no publication completed
	// between the pins and the check.
	gen uint64
	// refs counts the holders: one per open ReadTx, plus one for the
	// coordinator while the cut is installed as its current one. The
	// holder that drops it to zero releases the pins; zero is final.
	refs atomic.Int64
}

// acquire takes a reader's reference unless the cut is already released.
func (ct *cut) acquire() bool {
	for {
		n := ct.refs.Load()
		if n == 0 {
			return false
		}
		if ct.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release gives one reference back; the last one out unpins.
func (ct *cut) release() {
	if ct.refs.Add(-1) == 0 {
		ct.unpin()
	}
}

// unpin ends the cut's reader views: each shard's epoch pin goes, and
// with it the snapshot pages retained for it.
func (ct *cut) unpin() {
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
// reader retains no snapshot page.
func (c *Coordinator) published() {
	g := c.gen.Add(1)
	if ct := c.cur.Load(); ct != nil && ct.gen < g && c.cur.CompareAndSwap(ct, nil) {
		ct.release()
	}
}

// currentCut returns the current cut with a reference taken for the
// caller, building and installing a new one when there is none or a
// publication has retired it.
func (c *Coordinator) currentCut() (*cut, error) {
	for {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		g := c.gen.Load()
		old := c.cur.Load()
		if old != nil && old.gen == g {
			if old.acquire() {
				return old, nil
			}
			continue // released: it has been retired since the load above
		}
		ct, err := c.buildCut(g)
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
			old.release()
		}
		c.cm.ReadSnapshotBuilds.Inc()
		if c.gen.Load() != g {
			// A publisher that bumped the generation before the swap above
			// may have looked for a cut to retire before there was one. Its
			// bump is visible here, or this cut was to it: one of the two
			// retires it, so no stale cut keeps its pins while nobody reads.
			if c.cur.CompareAndSwap(ct, nil) {
				ct.release()
			}
		}
		return ct, nil
	}
}

// buildCut pins every shard exactly as a reader used to for itself; see
// cut. The result carries two references: the coordinator's and the
// building reader's.
func (c *Coordinator) buildCut(g uint64) (*cut, error) {
	if c.buildHook != nil {
		c.buildHook()
	}
	// Builders share pmu among themselves; only a two-phase publish or
	// a routing flip (the write side) excludes them, and neither holds
	// it across I/O.
	c.pmu.RLock()
	defer c.pmu.RUnlock()
	rt := c.routing.Load()
	ct := &cut{rt: rt, gen: g, views: make([]*storage.TxView, len(rt.ms))}
	for i, m := range rt.ms {
		v, err := m.BeginRead()
		if err != nil {
			ct.views = ct.views[:i]
			ct.unpin()
			return nil, err
		}
		ct.views[i] = v
	}
	ct.refs.Store(2)
	return ct, nil
}

// ReadTx is a coordinated read transaction: a reference on a cut. The
// views it hands out are this transaction's own handles on the cut's
// snapshot — they end with the transaction (ErrTxDone afterwards) while
// the pins they read through live on with the cut.
type ReadTx struct {
	ct    *cut
	ended atomic.Bool // ends every view handed out, at once
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

// BeginReadTx starts a read of the most recently published state of
// every shard (see cut for what one snapshot guarantees). Pair with
// EndReadTx. Neither does anything per shard.
func (c *Coordinator) BeginReadTx() (*ReadTx, error) {
	ct, err := c.currentCut()
	if err != nil {
		return nil, err
	}
	c.cm.ReaderPins.Inc()
	c.cm.ActiveReaders.Inc()
	return &ReadTx{ct: ct}, nil
}

// EndReadTx ends the transaction's views and gives its reference back.
func (c *Coordinator) EndReadTx(r *ReadTx) {
	r.ended.Store(true)
	c.cm.ActiveReaders.Dec()
	r.ct.release()
}

// Read runs fn against a snapshot of every shard.
func (c *Coordinator) Read(fn func(*ReadTx) error) error {
	r, err := c.BeginReadTx()
	if err != nil {
		return err
	}
	defer c.EndReadTx(r)
	return fn(r)
}
