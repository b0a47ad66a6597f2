package main

import (
	"fmt"
	"time"

	"ode"
)

// client issues one operation stream in a closed loop: its next
// operation starts when the previous one has returned and been checked.
type client struct {
	s   *store
	id  int
	rec *recorder
	// lastSeen is the highest sequence this client has read per object;
	// a later read below it is a read that went back in time.
	lastSeen []uint32
	failed   int
	firstErr error
}

func newClient(s *store, id int, rec *recorder) *client {
	return &client{s: s, id: id, rec: rec, lastSeen: make([]uint32, len(s.ptrs))}
}

// run executes ops in order. With lat non-nil it stores each
// operation's time there: one clock reading per operation, the end of
// one being the start of the next, so the reading costs the loop once.
func (c *client) run(ops []op, lat []int64) {
	prev := time.Now()
	for i := range ops {
		if c.rec != nil {
			c.rec.op = uint32(i)
		}
		root := c.rec.begin(spanOp, noSpan)
		if err := c.exec(&ops[i], root); err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("client %d op %d: %w", c.id, i, err)
			}
		}
		c.rec.end(root)
		if lat != nil {
			now := time.Now()
			lat[i] = int64(now.Sub(prev))
			prev = now
		}
	}
}

func (c *client) exec(o *op, root int32) error {
	if o.kind.isWrite() {
		return c.write(o, root)
	}
	s, rec := c.s, c.rec
	acked := s.acked[o.obj].Load()
	// Chosen before the snapshot is taken: a version acknowledged while
	// the View is open is not in its snapshot.
	var pin pinned
	if o.kind == opVDeref {
		pin = c.pickPinned(o)
	}
	sv := rec.begin(spanView, root)
	err := s.db.View(func(tx *ode.Tx) error {
		sc := rec.begin(spanClosure, sv)
		defer rec.end(sc)
		switch o.kind {
		case opDeref:
			sp := rec.begin(spanDeref, sc)
			b, err := s.ptrs[o.obj].Deref(tx)
			rec.end(sp)
			if err != nil {
				return err
			}
			return c.checkLatest(o.obj, *b, acked)
		case opVDeref:
			sp := rec.begin(spanVDeref, sc)
			b, err := pin.v.Deref(tx)
			rec.end(sp)
			if err != nil {
				return err
			}
			if err := verify(*b, pin.obj, s.w.size); err != nil {
				return err
			}
			if got := sequence(*b); got != pin.seq {
				return fmt.Errorf("object %d: pinned sequence %d read as %d", pin.obj, pin.seq, got)
			}
			return nil
		case opHistory:
			tip := s.pre[int(o.obj)*s.w.versions+s.w.versions-1]
			sp := rec.begin(spanHistory, sc)
			h, err := tip.v.History(tx)
			rec.end(sp)
			if err != nil {
				return err
			}
			if len(h) != s.w.versions {
				return fmt.Errorf("object %d: history of %d versions, want %d", o.obj, len(h), s.w.versions)
			}
			return nil
		default: // opAsOf
			i := int(o.obj)*s.w.versions + int(o.salt)%s.w.versions
			sp := rec.begin(spanAsOf, sc)
			v, ok, err := s.ptrs[o.obj].AsOf(tx, s.stamps[i])
			rec.end(sp)
			if err != nil {
				return err
			}
			if !ok || v.VID() != s.pre[i].v.VID() {
				return fmt.Errorf("object %d: AsOf stamp %d gave %v, want %v", o.obj, s.stamps[i], v, s.pre[i].v)
			}
			return nil
		}
	})
	rec.end(sv)
	return err
}

// pickPinned chooses the older version a specific-reference read
// dereferences: one that some writer has had acknowledged during the
// run or, while there is none (and for a quarter of the reads after),
// a preloaded version below the tip.
func (c *client) pickPinned(o *op) pinned {
	s := c.s
	if o.salt&3 != 0 {
		l := &s.logs[int(o.salt>>2)%len(s.logs)]
		if n := l.n.Load(); n > 0 {
			return l.entries[int64(o.salt>>4)%n]
		}
	}
	older := max(s.w.versions-1, 1)
	return s.pre[int(o.obj)*s.w.versions+int(o.salt>>4)%older]
}

// checkLatest verifies a read of an object's latest version: intact,
// never behind what this client has already seen, and never behind the
// writes acknowledged before the transaction began.
func (c *client) checkLatest(obj uint32, b []byte, ackedBefore uint32) error {
	if err := verify(b, obj, c.s.w.size); err != nil {
		return err
	}
	seq := sequence(b)
	if seq < c.lastSeen[obj] {
		return fmt.Errorf("object %d: sequence went back from %d to %d", obj, c.lastSeen[obj], seq)
	}
	if floor := c.s.baseSeq() + ackedBefore; seq < floor {
		return fmt.Errorf("object %d: sequence %d misses writes acknowledged up to %d", obj, seq, floor)
	}
	c.lastSeen[obj] = seq
	return nil
}

// write versions one object, or two in one Update. The next payload is
// derived from a Deref inside the Update, so concurrent writers of one
// object serialise in the engine and not in the harness; the
// acknowledged-write counters move only after Update has returned.
func (c *client) write(o *op, root int32) error {
	s, rec := c.s, c.rec
	targets := [2]uint32{o.obj, o.obj2}
	n := o.kind.objects()
	var acked [2]uint32
	for i := 0; i < n; i++ {
		acked[i] = s.acked[targets[i]].Load()
	}
	var made [2]pinned
	su := rec.begin(spanUpdate, root)
	err := s.db.Update(func(tx *ode.Tx) error {
		sc := rec.begin(spanClosure, su)
		defer rec.end(sc)
		for i := 0; i < n; i++ {
			obj, p := targets[i], s.ptrs[targets[i]]
			sp := rec.begin(spanDeref, sc)
			b, err := p.Deref(tx)
			rec.end(sp)
			if err != nil {
				return err
			}
			if err := c.checkLatest(obj, *b, acked[i]); err != nil {
				return err
			}
			next := nextPayload(*b, o.salt+uint32(i))
			sp = rec.begin(spanNewVersion, sc)
			v, err := p.NewVersion(tx)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin(spanSet, sc)
			err = p.Set(tx, &next)
			rec.end(sp)
			if err != nil {
				return err
			}
			made[i] = pinned{v: v, obj: obj, seq: sequence(next)}
		}
		return nil
	})
	rec.end(su)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		s.acked[targets[i]].Add(1)
		s.logs[c.id].add(made[i])
	}
	return nil
}
