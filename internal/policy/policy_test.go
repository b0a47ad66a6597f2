package policy

import (
	"errors"
	"testing"
	"time"

	"ode"
)

type Doc struct {
	Title string
	Body  string
}

func openDB(t testing.TB) *ode.DB {
	t.Helper()
	db, err := ode.Open(t.TempDir(), &ode.Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestNotifierDeliversScopedEvents(t *testing.T) {
	db := openDB(t)
	docs, err := ode.Register[Doc](db, "Doc")
	if err != nil {
		t.Fatal(err)
	}
	n := NewNotifier(db)
	var a, b ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		if a, err = docs.Create(tx, &Doc{Title: "a"}); err != nil {
			return err
		}
		b, err = docs.Create(tx, &Doc{Title: "b"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	n.WatchObject("alice", a.OID(), ode.On(ode.EvNewVersion))
	n.WatchType("team", docs.ID(), ode.OnAny)
	if err := db.Update(func(tx *ode.Tx) error {
		if _, err := a.NewVersion(tx); err != nil {
			return err
		}
		_, err := b.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	alice := n.Drain("alice")
	if len(alice) != 1 || alice[0].Event.Obj != a.OID() {
		t.Fatalf("alice notifications: %+v", alice)
	}
	team := n.Drain("team")
	if len(team) != 2 {
		t.Fatalf("team notifications: %d", len(team))
	}
	if n.Pending("alice") != 0 {
		t.Fatal("drain did not clear")
	}
	n.Unwatch("team")
	if err := db.Update(func(tx *ode.Tx) error {
		_, err := b.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n.Pending("team") != 0 {
		t.Fatal("unwatched subscriber still receives")
	}
}

func TestPercolationCascades(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	// Board contains module contains cell (three-level composite).
	var cell, module, board ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		if cell, err = docs.Create(tx, &Doc{Title: "cell"}); err != nil {
			return err
		}
		if module, err = docs.Create(tx, &Doc{Title: "module"}); err != nil {
			return err
		}
		board, err = docs.Create(tx, &Doc{Title: "board"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p := NewPercolator(db)
	p.Declare(module.OID(), cell.OID())
	p.Declare(board.OID(), module.OID())
	p.Enable()
	defer p.Disable()

	if err := db.Update(func(tx *ode.Tx) error {
		_, err := cell.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		// One explicit version of cell; percolation created one version
		// each of module and board.
		for _, c := range []struct {
			p    ode.Ptr[Doc]
			want uint64
		}{{cell, 2}, {module, 2}, {board, 2}} {
			n, err := c.p.VersionCount(tx)
			if err != nil {
				return err
			}
			if n != c.want {
				t.Fatalf("%v versions = %d want %d", c.p, n, c.want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Created() != 2 {
		t.Fatalf("percolated versions = %d", p.Created())
	}
	// Small change, big impact: that is why it is a policy. Disabled,
	// the same edit touches exactly one object.
	p.Disable()
	if err := db.Update(func(tx *ode.Tx) error {
		_, err := cell.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		n, _ := board.VersionCount(tx)
		if n != 2 {
			t.Fatalf("disabled percolator still fired: board=%d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPercolationCycleSafe(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	var a, b ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		if a, err = docs.Create(tx, &Doc{Title: "a"}); err != nil {
			return err
		}
		b, err = docs.Create(tx, &Doc{Title: "b"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p := NewPercolator(db)
	p.Declare(a.OID(), b.OID())
	p.Declare(b.OID(), a.OID()) // cycle
	p.Enable()
	defer p.Disable()
	if err := db.Update(func(tx *ode.Tx) error {
		_, err := a.NewVersion(tx)
		return err
	}); err != nil {
		t.Fatal(err) // would hang or stack-overflow without the guard
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLinearEnforcement(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	lin := NewLinear(db)
	var p ode.Ptr[Doc]
	var v0 ode.VPtr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		if p, err = docs.Create(tx, &Doc{Title: "lin"}); err != nil {
			return err
		}
		if v0, err = p.Pin(tx); err != nil {
			return err
		}
		// Appending to the tip is allowed.
		if _, err := lin.NewVersionFrom(tx, p.OID(), v0.VID()); err != nil {
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deriving from history is rejected.
	err := db.Update(func(tx *ode.Tx) error {
		_, err := lin.NewVersionFrom(tx, p.OID(), v0.VID())
		return err
	})
	if !errors.Is(err, ErrNonLinear) {
		t.Fatalf("want ErrNonLinear, got %v", err)
	}
	// Branch replays history into a fresh object.
	var branched ode.OID
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		branched, _, err = lin.Branch(tx, docs.ID(), p.OID(), v0.VID())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		if branched == p.OID() {
			t.Fatal("branch did not fork")
		}
		content, _, err := tx.ReadLatestRaw(branched)
		if err != nil || len(content) == 0 {
			t.Fatalf("branched content: %v", err)
		}
		n, err := tx.VersionCount(branched)
		if err != nil || n != 1 {
			t.Fatalf("branch history length = %d (replayed up to v0)", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkspaceCheckoutCheckin(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	ws := NewWorkspace(db, "rajeev")
	var p ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		p, err = docs.Create(tx, &Doc{Title: "design", Body: "public v0"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Checkout and edit privately.
	if err := db.Update(func(tx *ode.Tx) error {
		if _, err := ws.Checkout(tx, p.OID()); err != nil {
			return err
		}
		// Double checkout rejected.
		if _, err := ws.Checkout(tx, p.OID()); err == nil {
			t.Fatal("double checkout accepted")
		}
		return ws.Write(tx, p.OID(), []byte("private draft"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		// The workspace sees the draft.
		got, _, err := ws.Read(tx, p.OID())
		if err != nil || string(got) != "private draft" {
			t.Fatalf("workspace read: %q %v", got, err)
		}
		outs, err := ws.CheckedOut(tx)
		if err != nil || len(outs) != 1 || outs[0] != p.OID() {
			t.Fatalf("checked out: %v %v", outs, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Checkin promotes: the public latest becomes the draft state.
	if err := db.Update(func(tx *ode.Tx) error {
		_, err := ws.Checkin(tx, p.OID())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		content, _, err := tx.ReadLatestRaw(p.OID())
		if err != nil || string(content) != "private draft" {
			t.Fatalf("public after checkin: %q %v", content, err)
		}
		outs, _ := ws.CheckedOut(tx)
		if len(outs) != 0 {
			t.Fatalf("pin survived checkin: %v", outs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkspaceAbandon(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	ws := NewWorkspace(db, "scratch")
	var p ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		p, err = docs.Create(tx, &Doc{Body: "keep"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *ode.Tx) error {
		if _, err := ws.Checkout(tx, p.OID()); err != nil {
			return err
		}
		if err := ws.Write(tx, p.OID(), []byte("discard me")); err != nil {
			return err
		}
		return ws.Abandon(tx, p.OID())
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		n, err := tx.VersionCount(p.OID())
		if err != nil || n != 1 {
			t.Fatalf("abandoned version survived: %d %v", n, err)
		}
		// Writes without checkout are rejected.
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *ode.Tx) error {
		return ws.Write(tx, p.OID(), []byte("x"))
	})
	if err == nil {
		t.Fatal("write without checkout accepted")
	}
}

func TestRetentionBoundsHistory(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	var p ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		p, err = docs.Create(tx, &Doc{Title: "bounded"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ret := NewRetention(db, 3)
	ret.WatchObject(p.OID())
	ret.Enable()
	defer ret.Disable()
	// Create 10 versions; the policy must keep the history at 3.
	for i := 0; i < 10; i++ {
		if err := db.Update(func(tx *ode.Tx) error {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			return nv.Modify(tx, func(d *Doc) { d.Body = string(rune('a' + i)) })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ret.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		n, err := p.VersionCount(tx)
		if err != nil {
			return err
		}
		if n != 3 {
			t.Fatalf("retained %d versions, want 3", n)
		}
		// The latest survives with the newest content.
		v, err := p.Deref(tx)
		if err != nil || v.Body != "j" {
			t.Fatalf("latest after pruning: %+v %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ret.Pruned() != 8 {
		t.Fatalf("pruned = %d, want 8", ret.Pruned())
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Unwatched objects are untouched.
	var q ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		q, err = docs.Create(tx, &Doc{Title: "free"})
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if _, err := q.NewVersion(tx); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		n, _ := q.VersionCount(tx)
		if n != 6 {
			t.Fatalf("unwatched object pruned: %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionWatchAll(t *testing.T) {
	db := openDB(t)
	docs, _ := ode.Register[Doc](db, "Doc")
	ret := NewRetention(db, 1)
	ret.WatchAll()
	ret.Enable()
	defer ret.Disable()
	var p ode.Ptr[Doc]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		p, err = docs.Create(tx, &Doc{})
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if _, err := p.NewVersion(tx); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := ret.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		n, _ := p.VersionCount(tx)
		if n != 1 {
			t.Fatalf("keep=1 retained %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPercolationSurvivesCrossOrderRestart is the regression for a bug
// the E15 workload oracle caught at scale: when the composite lives on
// a LOWER shard than the triggering component, the percolator's
// tx.NewVersion(composite) is a join below a held shard, which
// try-locks — and when the lower shard is busy, restarts the closure by
// panicking out of it and rerunning it with both shards pre-locked. The
// old percolator kept its cycle-breaking in-flight set in plain
// (non-deferred) code keyed globally, so the panic left the composite
// permanently marked in-flight and every subsequent percolation of it —
// including the rerun's — was silently skipped.
func TestPercolationSurvivesCrossOrderRestart(t *testing.T) {
	db, composite, component := openPercolationPair(t, 0)
	p := NewPercolator(db)
	p.Declare(composite, component)
	p.Enable()
	defer p.Disable()

	// A writer parked on shard 0 (it read the composite) makes the
	// percolation's try-lock fail.
	held, park, holder := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		holder <- db.Update(func(tx *ode.Tx) error {
			if _, err := tx.VersionCount(composite); err != nil {
				return err
			}
			close(held)
			<-park
			return nil
		})
	}()
	<-held

	// New version of the shard-1 component: the transaction joins shard
	// 1 first, the in-transaction percolation then tries shard 0 — held,
	// so the closure must run exactly twice (the lazy attempt and the
	// pre-locked rerun).
	runs := 0
	done := make(chan error, 1)
	go func() {
		done <- db.Update(func(tx *ode.Tx) error {
			runs++
			_, err := tx.NewVersion(component)
			return err
		})
	}()
	restarts := &db.Engine().Coordinator().Metrics().RestartsJoinOrder
	waitUntil(t, "the join-order restart", func() bool { return restarts.Load() == 1 })
	close(park)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("closure ran %d times, want 2 (a contended descending join must restart)", runs)
	}
	checkPercolated(t, db, p, composite)
}

// TestPercolationSurvivesRoutingRestart: a percolation that joins a
// shard after a Reshard's routing change ends the attempt like any
// restart. It used to get an error back, which the percolator — a
// trigger handler, which may not veto — recorded in Err while the
// Update committed the component's version without the composite's.
func TestPercolationSurvivesRoutingRestart(t *testing.T) {
	// The composite lives ABOVE the component, so the percolation's join
	// is an ordinary ascending one and only the routing change can end
	// the attempt.
	db, composite, component := openPercolationPair(t, 1)
	p := NewPercolator(db)
	p.Declare(composite, component)
	p.Enable()
	defer p.Disable()

	joined, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	runs := 0
	go func() {
		done <- db.Update(func(tx *ode.Tx) error {
			runs++
			if _, err := tx.VersionCount(component); err != nil { // joins shard 0
				return err
			}
			if runs == 1 {
				close(joined)
				<-resume
			}
			_, err := tx.NewVersion(component)
			return err
		})
	}()
	<-joined
	// The split's first step adds a physical shard and swaps the routing
	// the attempt began with; its chunks then wait for shard 0.
	resharded := make(chan error, 1)
	go func() { resharded <- db.Reshard(3) }()
	waitUntil(t, "the reshard to grow", func() bool { return db.Engine().Coordinator().NumShards() == 3 })
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-resharded; err != nil {
		t.Fatal(err)
	}
	if runs < 2 {
		t.Fatalf("closure ran %d times, want a rerun after the routing change", runs)
	}
	if n := db.Engine().Coordinator().Metrics().RestartsRouting.Load(); n == 0 {
		t.Fatal("no routing restart counted")
	}
	checkPercolated(t, db, p, composite)
}

// openPercolationPair opens a two-shard database holding a component on
// shard 0 and a composite on shard 1 (compositeShard 1) or the reverse
// (compositeShard 0). One object per transaction spreads allocations
// round-robin across the shards; an id's top bits name its birth shard
// (storage.SlotOf).
func openPercolationPair(t *testing.T, compositeShard uint64) (db *ode.DB, composite, component ode.OID) {
	t.Helper()
	db, err := ode.Open(t.TempDir(), &ode.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tid, err := db.Engine().RegisterType("Part")
	if err != nil {
		t.Fatal(err)
	}
	for composite == 0 || component == 0 {
		var o ode.OID
		if err := db.Update(func(tx *ode.Tx) error {
			var err error
			o, _, err = tx.CreateRaw(tid, []byte("seed"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if uint64(o)>>54 == compositeShard {
			if composite == 0 {
				composite = o
			}
		} else if component == 0 {
			component = o
		}
	}
	return db, composite, component
}

// checkPercolated asserts the percolator saw no error and the composite
// gained exactly the one percolated version.
func checkPercolated(t *testing.T, db *ode.DB, p *Percolator, composite ode.OID) {
	t.Helper()
	if err := p.Err(); err != nil {
		t.Fatalf("percolation error: %v", err)
	}
	if err := db.View(func(tx *ode.Tx) error {
		n, err := tx.VersionCount(composite)
		if err != nil {
			return err
		}
		if n != 2 {
			t.Fatalf("composite has %d versions, want 2 (percolation lost across restart)", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// waitUntil polls cond until it holds, failing the test after a while.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
