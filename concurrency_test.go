package ode

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEscapedTxReturnsErrTxDone pins the handle lifecycle: a *Tx that
// leaks out of its View/Update closure must refuse every operation with
// ErrTxDone instead of silently running against later database state.
func TestEscapedTxReturnsErrTxDone(t *testing.T) {
	db := openDB(t, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	var escaped *Tx
	var o OID
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{Name: "escapee"})
		if err != nil {
			return err
		}
		o = p.OID()
		escaped = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := escaped.Latest(o); !errors.Is(err, ErrTxDone) {
		t.Fatalf("read on escaped update tx: %v", err)
	}
	if _, err := escaped.NewVersion(o); !errors.Is(err, ErrTxDone) {
		t.Fatalf("write on escaped update tx: %v", err)
	}
	if _, _, err := escaped.CreateRaw(0, nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("create on escaped update tx: %v", err)
	}

	if err := db.View(func(tx *Tx) error {
		escaped = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := escaped.Versions(o); !errors.Is(err, ErrTxDone) {
		t.Fatalf("read on escaped view tx: %v", err)
	}

	var nilTx *Tx
	if _, err := nilTx.Latest(o); !errors.Is(err, ErrTxDone) {
		t.Fatalf("read on nil tx: %v", err)
	}

	// None of the rejected calls touched the database.
	if err := db.View(func(tx *Tx) error {
		vs, err := tx.Versions(o)
		if err != nil {
			return err
		}
		if len(vs) != 1 {
			t.Fatalf("escaped tx mutated state: %d versions", len(vs))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersConsistentSnapshots is the reader/writer stress
// test for the epoch-pinned snapshot machinery (DESIGN.md §9). Reader
// goroutines traverse History/Dprev while a writer loops
// NewVersion/DeleteVersion against the same object; every View must see
// a frozen, internally consistent version graph for its whole lifetime.
// Run under -race this also proves readers share no unsynchronised
// state with the writer.
func TestConcurrentReadersConsistentSnapshots(t *testing.T) {
	db := openDB(t, &Options{NoSync: true})
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	var o OID
	if err := db.Update(func(tx *Tx) error {
		p, err := parts.Create(tx, &Part{Name: "hot"})
		if err != nil {
			return err
		}
		o = p.OID()
		for i := 0; i < 8; i++ {
			if _, err := p.NewVersion(tx); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const (
		readers     = 8
		writerIters = 250
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: advance the tip and prune the tail, keeping a sliding
	// window of versions so readers race against both creation and
	// deletion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < writerIters; i++ {
			if err := db.Update(func(tx *Tx) error {
				if _, err := tx.NewVersion(o); err != nil {
					return err
				}
				vs, err := tx.Versions(o)
				if err != nil {
					return err
				}
				if len(vs) > 12 {
					return tx.DeleteVersion(o, vs[1])
				}
				return nil
			}); err != nil {
				errs <- fmt.Errorf("writer iter %d: %w", i, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				err := db.View(func(tx *Tx) error {
					vs, err := tx.Versions(o)
					if err != nil {
						return err
					}
					set := make(map[VID]bool, len(vs))
					for _, v := range vs {
						set[v] = true
					}
					for _, v := range vs {
						if _, err := tx.Info(o, v); err != nil {
							return fmt.Errorf("version %v vanished mid-view: %w", v, err)
						}
						d, err := tx.Dprev(o, v)
						if err != nil {
							return err
						}
						if d != 0 && !set[d] {
							return fmt.Errorf("dprev %v of %v outside snapshot version set", d, v)
						}
					}
					latest, err := tx.Latest(o)
					if err != nil {
						return err
					}
					if _, err := tx.History(o, latest); err != nil {
						return err
					}
					// The version set must not move while the view lives.
					again, err := tx.Versions(o)
					if err != nil {
						return err
					}
					if len(again) != len(vs) {
						return fmt.Errorf("snapshot moved under view: %d -> %d versions", len(vs), len(again))
					}
					_ = db.Stats() // atomic counters: must be clean under -race
					return nil
				})
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersUnderPoolPressure is the reader/writer stress test
// above with a 16-page buffer pool and the dereference cache off, at one
// shard and at four: the pages readers resolve without the pool mutex
// are evicted, faulted back in and copied by the writer under them. A
// version's content is its revision repeated, so a View handed a page
// from the wrong epoch, or one the writer is still editing, sees a torn
// payload, a version set that moves, or a revision older than one it
// already saw.
func TestConcurrentReadersUnderPoolPressure(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// A small log makes the writer checkpoint itself: the
			// background checkpointer alone falls behind it, and dirty
			// pages, which are never evicted, would fill the pool.
			db := openDB(t, &Options{NoSync: true, Shards: shards, PoolPages: 16, DerefCacheBytes: -1, CheckpointBytes: 32 << 10})
			parts, err := Register[Part](db, "Part")
			if err != nil {
				t.Fatal(err)
			}
			const objects, readers, writerIters = 24, 3, 144
			content := func(i, rev int) *Part {
				return &Part{Name: fmt.Sprint(i), Rev: rev, Data: bytes.Repeat([]byte{byte(rev)}, 1500)}
			}
			ptrs := make([]Ptr[Part], objects)
			if err := db.Update(func(tx *Tx) error {
				for i := range ptrs {
					if ptrs[i], err = parts.Create(tx, content(i, 0)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			check := func(i int, p *Part) error {
				if want := content(i, p.Rev); p.Name != want.Name || !bytes.Equal(p.Data, want.Data) {
					return fmt.Errorf("object %d revision %d: torn content %q/%x…", i, p.Rev, p.Name, p.Data[:8])
				}
				return nil
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, readers+1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for n := 0; n < writerIters; n++ {
					i := n % objects
					if err := db.Update(func(tx *Tx) error {
						v, err := ptrs[i].NewVersion(tx)
						if err != nil {
							return err
						}
						if err := v.Set(tx, content(i, n/objects+1)); err != nil {
							return err
						}
						vs, err := ptrs[i].Versions(tx)
						if err != nil || len(vs) <= 5 {
							return err
						}
						return vs[1].Delete(tx)
					}); err != nil {
						errs <- fmt.Errorf("writer iter %d: %w", n, err)
						return
					}
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					seen := make([]int, objects)
					for n := r; !stop.Load(); n++ {
						i := n * 7 % objects
						err := db.View(func(tx *Tx) error {
							latest, err := ptrs[i].Deref(tx)
							if err != nil {
								return err
							}
							if err := check(i, latest); err != nil {
								return err
							}
							if latest.Rev < seen[i] {
								return fmt.Errorf("object %d went back from revision %d to %d", i, seen[i], latest.Rev)
							}
							seen[i] = latest.Rev
							vs, err := ptrs[i].Versions(tx)
							if err != nil {
								return err
							}
							for _, v := range vs {
								p, err := v.Deref(tx)
								if err != nil {
									return fmt.Errorf("object %d version %v vanished mid-view: %w", i, v, err)
								}
								if err := check(i, p); err != nil {
									return err
								}
								if p.Rev > latest.Rev {
									return fmt.Errorf("object %d: version %v at revision %d beyond the latest's %d", i, v, p.Rev, latest.Rev)
								}
							}
							again, err := ptrs[i].Versions(tx)
							if err == nil && len(again) != len(vs) {
								err = fmt.Errorf("object %d: snapshot moved under view: %d -> %d versions", i, len(vs), len(again))
							}
							return err
						})
						if err != nil {
							errs <- fmt.Errorf("reader %d: %w", r, err)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			if m := db.Metrics(); m.PoolEvictions == 0 {
				t.Fatal("no pool evictions: the test put the pool under no pressure")
			}
		})
	}
}

// TestWriterCheckpointsAtPoolCapacity: back-to-back Updates on a small
// pool, with the default CheckpointBytes the log never reaches, must not
// outrun the checkpointer. Dirty pages cannot be evicted, so a writer
// that finds its shard's dirty pages at the pool's capacity checkpoints
// before it starts: checkpoints run, and the resident dirty pages of
// every shard stay within the capacity plus what one transaction
// dirties.
func TestWriterCheckpointsAtPoolCapacity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const poolPages, objects, updates = 16, 24, 146
			db := openDB(t, &Options{NoSync: true, Shards: shards, PoolPages: poolPages, DerefCacheBytes: -1})
			parts, err := Register[Part](db, "Part")
			if err != nil {
				t.Fatal(err)
			}
			content := func(i, rev int) *Part {
				return &Part{Name: fmt.Sprint(i), Rev: rev, Data: bytes.Repeat([]byte{byte(rev)}, 1500)}
			}
			ptrs := make([]Ptr[Part], objects)
			if err := db.Update(func(tx *Tx) error {
				for i := range ptrs {
					if ptrs[i], err = parts.Create(tx, content(i, 0)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			dirty := func() []int {
				out := make([]int, 0, shards)
				for _, m := range db.coord.Shards() {
					_, d := m.Store().Pool().Resident()
					out = append(out, d)
				}
				return out
			}
			// perTx is the most dirty pages one Update added to a shard;
			// peak the most any shard held after one.
			perTx, peak := 0, 0
			for n := 0; n < updates; n++ {
				i := n % objects
				before := dirty()
				if err := db.Update(func(tx *Tx) error {
					v, err := ptrs[i].NewVersion(tx)
					if err != nil {
						return err
					}
					if err := v.Set(tx, content(i, n/objects+1)); err != nil {
						return err
					}
					vs, err := ptrs[i].Versions(tx)
					if err != nil || len(vs) <= 5 {
						return err
					}
					return vs[1].Delete(tx)
				}); err != nil {
					t.Fatalf("update %d: %v", n, err)
				}
				for s, d := range dirty() {
					perTx = max(perTx, d-before[s])
					peak = max(peak, d)
				}
			}
			st := db.Stats()
			t.Logf("%d checkpoints; peak %d dirty pages in a shard, at most %d added by one Update", st.Checkpoints, peak, perTx)
			if st.Checkpoints == 0 {
				t.Error("no checkpoint ran: the writer outran the checkpointer")
			}
			if peak > poolPages+perTx {
				t.Errorf("a shard held %d dirty pages, past the pool's %d plus one Update's %d", peak, poolPages, perTx)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
