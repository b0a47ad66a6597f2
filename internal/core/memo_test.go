package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"ode/internal/oid"
)

// checkMemo compares every record the write bundles of tx hold in their
// memos with a fresh read of the tree, and returns how many it compared.
func checkMemo(t *testing.T, tx *Tx, step string) int {
	t.Helper()
	n := 0
	for s, b := range tx.shards {
		if b == nil || b.memo == nil {
			continue
		}
		visit := func(om *objMemo) {
			if om.hasHdr {
				n++
				raw, ok, err := b.objTable.Get(objKey(om.o))
				switch {
				case err != nil || !ok:
					t.Errorf("%s: shard %d memoises a header of %v the tree does not hold (%v)", step, s, om.o, err)
				default:
					if h, err := decodeObjHeader(raw); err != nil || h != om.h {
						t.Errorf("%s: shard %d memoises %v's header as %+v, the tree holds %+v (%v)", step, s, om.o, om.h, h, err)
					}
				}
			}
			for _, vm := range om.vers[:min(om.nv, memoVersions)] {
				n++
				raw, ok, err := b.verIdx.Get(verKey(om.o, vm.v))
				switch {
				case err != nil || !ok:
					t.Errorf("%s: shard %d memoises a record of %v/%v the tree does not hold (%v)", step, s, om.o, vm.v, err)
				default:
					if rec, err := decodeVerRec(raw); err != nil || rec != vm.rec {
						t.Errorf("%s: shard %d memoises %v/%v as %+v, the tree holds %+v (%v)", step, s, om.o, vm.v, vm.rec, rec, err)
					}
				}
			}
		}
		for i := 0; i < b.memo.n; i++ {
			visit(&b.memo.small[i])
		}
		for _, om := range b.memo.big {
			visit(om)
		}
	}
	return n
}

// memoSteps runs named steps inside one write transaction, checking the
// memos against the trees after each. The first step to fail ends the
// run: its error is err, for the transaction to return.
type memoSteps struct {
	t        *testing.T
	tx       *Tx
	compared int
	err      error
}

func (m *memoSteps) do(step string, fn func() error) {
	m.t.Helper()
	if m.err != nil {
		return
	}
	if err := fn(); err != nil {
		m.err = fmt.Errorf("%s: %w", step, err)
		return
	}
	m.compared += checkMemo(m.t, m.tx, step)
}

// writeCycle is one Deref, NewVersion and Set of o's latest.
func (m *memoSteps) writeCycle(o oid.OID, content []byte) {
	m.t.Helper()
	m.do("deref", func() error { _, _, err := m.tx.ReadLatest(o); return err })
	m.do("newversion", func() error { _, err := m.tx.NewVersion(o); return err })
	m.do("set", func() error { _, err := m.tx.UpdateLatest(o, content); return err })
}

// memoContent is a payload close enough to its predecessors that the
// delta tier demotes them.
func memoContent(o oid.OID, i int) []byte {
	b := bytes.Repeat([]byte("memo-content-"), 40)
	copy(b[16*(i%20):], fmt.Sprintf("%v#%d", o, i))
	return b
}

// memoChain commits an object on shard s with n versions.
func memoChain(t *testing.T, e *Engine, ty oid.TypeID, s, n int) (oid.OID, []oid.VID) {
	t.Helper()
	var o oid.OID
	var vids []oid.VID
	w(t, e, func(tx *Tx) error {
		tx.lastAlloc = s
		var v oid.VID
		var err error
		if o, v, err = tx.Create(ty, memoContent(0, 0)); err != nil {
			return err
		}
		vids = append(vids, v)
		for i := 1; i < n; i++ {
			if v, err = tx.NewVersion(o); err != nil {
				return err
			}
			if _, err := tx.UpdateLatest(o, memoContent(o, i)); err != nil {
				return err
			}
			vids = append(vids, v)
		}
		return nil
	})
	return o, vids
}

// TestMemoMatchesTrees interleaves a write transaction's Deref,
// NewVersion and Set with each path that changes records around the
// store helpers or ends what a memo may hold — the splice of an interior
// version's delete, an old version's rewrite detaching its dependents, a
// join-order restart, a live reshard moving the object — and after every
// step compares what the memos hold with a fresh read of the trees.
func TestMemoMatchesTrees(t *testing.T) {
	for _, tier := range []bool{false, true} {
		opts := Options{DeltaTier: tier, AnchorInterval: 4}
		t.Run(fmt.Sprintf("tier=%v", tier), func(t *testing.T) {
			t.Run("splice", func(t *testing.T) {
				e := newShardedEngine(t, 2, opts)
				ty := mustType(t, e, "T")
				o, vids := memoChain(t, e, ty, 1, 5)
				w(t, e, func(tx *Tx) error {
					m := &memoSteps{t: t, tx: tx}
					m.writeCycle(o, memoContent(o, 10))
					m.do("delete interior", func() error { return tx.DeleteVersion(o, vids[2]) })
					m.do("read spliced neighbour", func() error { _, err := tx.ReadVersion(o, vids[3]); return err })
					m.do("dchildren of spliced parent", func() error { _, err := tx.DChildren(o, vids[1]); return err })
					m.writeCycle(o, memoContent(o, 11))
					if m.compared == 0 {
						t.Error("the memos held nothing to compare")
					}
					return m.err
				})
				checkAll(t, e)
			})
			t.Run("detach", func(t *testing.T) {
				e := newShardedEngine(t, 2, opts)
				ty := mustType(t, e, "T")
				o, vids := memoChain(t, e, ty, 0, 6)
				w(t, e, func(tx *Tx) error {
					m := &memoSteps{t: t, tx: tx}
					m.writeCycle(o, memoContent(o, 10))
					m.do("update old version", func() error { return tx.UpdateVersion(o, vids[1], memoContent(o, 20)) })
					m.do("read its child", func() error { _, err := tx.ReadVersion(o, vids[2]); return err })
					m.writeCycle(o, memoContent(o, 11))
					m.do("update root", func() error { return tx.UpdateVersion(o, vids[0], memoContent(o, 21)) })
					m.writeCycle(o, memoContent(o, 12))
					if m.compared == 0 {
						t.Error("the memos held nothing to compare")
					}
					return m.err
				})
				checkAll(t, e)
			})
			t.Run("restart", func(t *testing.T) {
				e := newShardedEngine(t, 2, opts)
				ty := mustType(t, e, "T")
				a, _ := memoChain(t, e, ty, 0, 3)
				b, _ := memoChain(t, e, ty, 1, 3)
				release := holdShardOf(t, e, a)
				var attempts atomic.Int32
				done := make(chan error, 1)
				go func() {
					done <- e.Write(func(tx *Tx) error {
						n := attempts.Add(1)
						m := &memoSteps{t: t, tx: tx}
						m.writeCycle(b, memoContent(b, 10+int(n)))
						// Shard 0 is below the held shard 1: a try-lock,
						// which fails while the holder parks.
						m.writeCycle(a, memoContent(a, 10+int(n)))
						m.writeCycle(b, memoContent(b, 20+int(n)))
						return m.err
					})
				}()
				waitRestarts(t, e, 1)
				release()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if n := attempts.Load(); n < 2 {
					t.Fatalf("%d attempts, want a restart", n)
				}
				if err := e.Read(func(tx *Tx) error {
					for _, o := range []oid.OID{a, b} {
						want := uint64(4)
						if o == b {
							want = 5
						}
						if n, err := tx.VersionCount(o); err != nil || n != want {
							return fmt.Errorf("%v has %d versions (%v), want %d", o, n, err, want)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				checkAll(t, e)
			})
			t.Run("reshard", func(t *testing.T) {
				// A merge moves the objects of the shards it folds away,
				// and the split after it moves them back home.
				e := newShardedEngine(t, 4, opts)
				ty := mustType(t, e, "T")
				objs := make([]oid.OID, 24)
				for i := range objs {
					objs[i], _ = memoChain(t, e, ty, i%4, 3)
				}
				shardOf := func() []int {
					out := make([]int, len(objs))
					if err := e.Read(func(tx *Tx) error {
						for i, o := range objs {
							out[i] = tx.byO(o)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					return out
				}
				before := shardOf()
				last := make([][]byte, len(objs))
				for _, target := range []int{2, 4} {
					done := make(chan error, 1)
					go func() { done <- e.Reshard(target) }()
					for round, finished := 0, false; !finished; round++ {
						for i, o := range objs {
							content := memoContent(o, 100*target+round)
							w(t, e, func(tx *Tx) error {
								m := &memoSteps{t: t, tx: tx}
								m.writeCycle(o, content)
								return m.err
							})
							last[i] = content
						}
						select {
						case err := <-done:
							if err != nil {
								t.Fatal(err)
							}
							finished = true
						default:
						}
					}
					if target == 2 {
						moved := 0
						for i, s := range shardOf() {
							if s != before[i] {
								moved++
							}
						}
						if moved == 0 {
							t.Fatal("the reshard moved none of the objects")
						}
					}
				}
				if err := e.Read(func(tx *Tx) error {
					for i, o := range objs {
						got, _, err := tx.ReadLatest(o)
						if err != nil {
							return err
						}
						if !bytes.Equal(got, last[i]) {
							return fmt.Errorf("%v reads %q, want the last write", o, got[:32])
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				checkAll(t, e)
			})
		})
	}
}

// checkAll runs the engine's integrity check over every shard.
func checkAll(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Read(func(tx *Tx) error { return tx.CheckAll() }); err != nil {
		t.Fatal(err)
	}
}
