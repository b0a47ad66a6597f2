package txn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/oid"
	"ode/internal/storage"
)

// cutShardCounts are the shard counts every cut test runs at.
var cutShardCounts = []int{1, 4}

func openCutCoord(t testing.TB, shards int, opts Options) *Coordinator {
	t.Helper()
	opts.Shards = shards
	opts.Storage.PageSize = 512
	c, err := OpenCoordinator(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// within fails the test if fn has not returned after a generous bound:
// the lifecycle tests are about calls that must not hang.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func nothing(*ReadTx) error { return nil }

// Close with a cut cached and nobody reading must not wait on the cut's
// own registration with the shards; afterwards readers are refused.
func TestCloseWithIdleCut(t *testing.T) {
	for _, n := range cutShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := openCutCoord(t, n, Options{NoSync: true})
			if err := c.Read(nothing); err != nil {
				t.Fatal(err)
			}
			if c.cur.Load() == nil {
				t.Fatal("no cut cached after a read")
			}
			within(t, "Close with an idle cut", func() {
				if err := c.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			if err := c.Read(nothing); !errors.Is(err, ErrClosed) {
				t.Fatalf("Read after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// A shard closed directly, not through its coordinator, must not hang
// on the coordinator's idle cut.
func TestManagerCloseRetiresCoordinatorCut(t *testing.T) {
	c := openCutCoord(t, 1, Options{NoSync: true})
	if err := c.Read(nothing); err != nil {
		t.Fatal(err)
	}
	within(t, "Manager.Close under the coordinator's idle cut", func() {
		if err := c.Shards()[0].Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if err := c.Read(nothing); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}
}

// Close waits for a reader still inside its transaction, as it always
// has, and that reader's snapshot stays usable until it ends.
func TestCloseWaitsForReaderInFlight(t *testing.T) {
	for _, n := range cutShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := openCutCoord(t, n, Options{NoSync: true})
			var rid oid.RID
			if err := cwriteH(c, n-1, func(h *storage.Heap) error {
				var err error
				rid, err = h.Insert([]byte("kept"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			inside, finish := make(chan struct{}), make(chan struct{})
			readErr := make(chan error, 1)
			go func() {
				readErr <- c.Read(func(r *ReadTx) error {
					close(inside)
					<-finish
					got, err := storage.NewHeap(r.View(n-1), nil).Read(rid)
					if err == nil && string(got) != "kept" {
						err = fmt.Errorf("read %q", got)
					}
					return err
				})
			}()
			<-inside
			closed := make(chan error, 1)
			go func() { closed <- c.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) with a reader in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(finish)
			if err := <-readErr; err != nil {
				t.Fatalf("reader in flight across Close: %v", err)
			}
			within(t, "Close after the reader ended", func() {
				if err := <-closed; err != nil {
					t.Errorf("Close: %v", err)
				}
			})
		})
	}
}

// snapshotPages sums the copy-on-write pages every shard retains.
func snapshotPages(c *Coordinator) int {
	n := 0
	for _, m := range c.Shards() {
		n += m.Store().Pool().SnapshotCount()
	}
	return n
}

// Retention is bounded by the readers, not by the cut: a cut nobody
// holds goes with the next commit, so a write-only stretch retains
// nothing; a reader asleep in its closure holds back exactly its own
// epochs — what a reader pinning for itself held — until it ends.
func TestCutRetentionBounded(t *testing.T) {
	for _, n := range cutShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := openCutCoord(t, n, Options{NoSync: true, CheckpointBytes: -1})
			rids := make([]oid.RID, n)
			for s := range rids {
				if err := cwriteH(c, s, func(h *storage.Heap) error {
					var err error
					rids[s], err = h.Insert([]byte("v0"))
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			update := func(i int) {
				t.Helper()
				s := i % n
				if err := cwriteH(c, s, func(h *storage.Heap) error {
					return h.Update(rids[s], []byte(fmt.Sprintf("v%d", i)))
				}); err != nil {
					t.Fatal(err)
				}
			}
			assertUnpinned := func(when string) {
				t.Helper()
				if got := snapshotPages(c); got != 0 {
					t.Errorf("%s: %d snapshot pages retained, want 0", when, got)
				}
				for s, m := range c.Shards() {
					pl := m.Store().Pool()
					if old, dur := pl.OldestPinned(), pl.DurableEpoch(); old != dur {
						t.Errorf("%s: shard %d oldest pinned epoch %d trails durable %d", when, s, old, dur)
					}
				}
			}

			// One reader, then a thousand commits nobody reads.
			if err := c.Read(nothing); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 1000; i++ {
				update(i)
			}
			assertUnpinned("after 1000 unread commits")
			if c.cur.Load() != nil {
				t.Error("a cut outlived the commits that retired it")
			}

			// A reader asleep in its closure while 40 commits land, measured
			// against what the same commits retain under one pin per shard
			// taken directly — a reader at the parent commit.
			asleep := func(from int, hold func(body func())) (pages int) {
				hold(func() {
					for i := from; i < from+40; i++ {
						update(i)
					}
					pages = snapshotPages(c)
				})
				return pages
			}
			direct := asleep(1001, func(body func()) {
				var views []*storage.TxView
				for _, m := range c.Shards() {
					v, err := m.BeginRead()
					if err != nil {
						t.Fatal(err)
					}
					views = append(views, v)
				}
				body()
				for s, m := range c.Shards() {
					m.EndRead(views[s])
				}
			})
			update(1041)
			assertUnpinned("after the direct pins ended")
			shared := asleep(1042, func(body func()) {
				err := c.Read(func(r *ReadTx) error {
					pinned := make([]uint64, n)
					for s := range pinned {
						pinned[s] = r.View(s).Epoch()
					}
					body()
					for s, m := range c.Shards() {
						if got := m.Store().Pool().OldestPinned(); got != pinned[s] {
							t.Errorf("asleep: shard %d oldest pinned epoch %d, the reader's is %d", s, got, pinned[s])
						}
					}
					// Shard 0's newest commit before the reader began.
					want := fmt.Sprintf("v%d", 1041/n*n)
					got, err := storage.NewHeap(r.View(0), nil).Read(rids[0])
					if err == nil && string(got) != want {
						err = fmt.Errorf("sleeping reader read %q, its snapshot holds %s", got, want)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			if shared > direct {
				t.Errorf("a reader asleep on the shared cut retained %d snapshot pages, one pinning for itself %d", shared, direct)
			}
			update(1082) // retires the cut the sleeper shared
			assertUnpinned("after the sleeping reader ended")
		})
	}
}

// A publication that lands between the builder's generation load and
// its pins leaves a cut whose label is older than its contents. It must
// be rebuilt — never handed to a reader, the builder's own included.
func TestBornStaleCutIsRebuilt(t *testing.T) {
	for _, n := range cutShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := openCutCoord(t, n, Options{NoSync: true})
			var rid oid.RID
			if err := cwriteH(c, 0, func(h *storage.Heap) error {
				var err error
				rid, err = h.Insert([]byte("v0"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			hooked := 0
			c.buildHook = func() {
				hooked++
				if hooked > 1 {
					return // only the first build is raced
				}
				if err := cwriteH(c, 0, func(h *storage.Heap) error {
					return h.Update(rid, []byte("v1"))
				}); err != nil {
					t.Error(err)
				}
			}
			builds := c.cm.ReadSnapshotBuilds.Load()
			var served *cut
			if err := c.Read(func(r *ReadTx) error {
				served = r.ct
				got, err := storage.NewHeap(r.View(0), nil).Read(rid)
				if err == nil && string(got) != "v1" {
					err = fmt.Errorf("read %q, want the commit acknowledged before the pins", got)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			c.buildHook = nil
			if hooked != 2 {
				t.Errorf("builder ran %d times, want 2 (the raced build discarded, one rebuild)", hooked)
			}
			if got := c.cm.ReadSnapshotBuilds.Load() - builds; got != 1 {
				t.Errorf("%d cuts installed, want 1", got)
			}
			if served.gen != c.gen.Load() {
				t.Errorf("served a cut labelled generation %d at generation %d", served.gen, c.gen.Load())
			}
			// The rebuilt cut is the one the next reader shares.
			if err := c.Read(func(r *ReadTx) error {
				if r.ct != served {
					return errors.New("second reader did not share the rebuilt cut")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Readers racing builders, publishers and each other: every reader must
// see at least what was acknowledged before it began, and never less
// than it saw before; whatever the interleaving, the references balance
// and the last cut is released.
func TestCutConcurrentReadersAndPublishers(t *testing.T) {
	for _, n := range cutShardCounts {
		for _, nosync := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/nosync=%v", n, nosync), func(t *testing.T) {
				c := openCutCoord(t, n, Options{NoSync: nosync})
				rids := make([]oid.RID, n)
				for s := range rids {
					if err := cwriteH(c, s, func(h *storage.Heap) error {
						var err error
						rids[s], err = h.Insert([]byte{0, 0})
						return err
					}); err != nil {
						t.Fatal(err)
					}
				}
				const commits = 200
				acked := make([]atomic.Uint32, n)
				var wg sync.WaitGroup
				for s := 0; s < n; s++ { // one writer per shard
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := 1; i <= commits; i++ {
							if err := cwriteH(c, s, func(h *storage.Heap) error {
								return h.Update(rids[s], []byte{byte(i >> 8), byte(i)})
							}); err != nil {
								t.Error(err)
								return
							}
							acked[s].Store(uint32(i))
						}
					}(s)
				}
				for reader := 0; reader < 3; reader++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						last := make([]uint16, n)
						for done := false; !done; {
							done = true
							floor := make([]uint16, n)
							for s := range floor {
								floor[s] = uint16(acked[s].Load())
								done = done && floor[s] == commits
							}
							err := c.Read(func(r *ReadTx) error {
								for s := 0; s < n; s++ {
									b, err := storage.NewHeap(r.View(s), nil).Read(rids[s])
									if err != nil {
										return err
									}
									seq := uint16(b[0])<<8 | uint16(b[1])
									if seq < floor[s] {
										return fmt.Errorf("shard %d: read %d, %d was acknowledged before the read began", s, seq, floor[s])
									}
									if seq < last[s] {
										return fmt.Errorf("shard %d: read %d after %d", s, seq, last[s])
									}
									last[s] = seq
								}
								return nil
							})
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				if ct := c.cur.Load(); ct != nil {
					if refs := ct.refs.Load(); refs != 1 {
						t.Errorf("idle cut holds %d references, want the coordinator's 1", refs)
					}
				}
				if got := c.cm.ActiveReaders.Load(); got != 0 {
					t.Errorf("ActiveReaders = %d at rest", got)
				}
				within(t, "Close", func() {
					if err := c.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				})
				for s, m := range c.Shards() {
					if got := m.Store().Pool().SnapshotCount(); got != 0 {
						t.Errorf("shard %d: %d snapshot pages retained after Close", s, got)
					}
				}
			})
		}
	}
}

// TestReadBeginEndAllocs pins what beginning and ending a read costs in
// allocations at any shard count: the ReadTx (measured 1; a view handle
// is made when a shard is first read, not here).
func TestReadBeginEndAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	const maxReadBeginEndAllocs = 2
	for _, n := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := openCutCoord(t, n, Options{NoSync: true})
			avg := testing.AllocsPerRun(200, func() {
				if err := c.Read(nothing); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("read begin/end: %.1f allocs/op (ceiling %d)", avg, maxReadBeginEndAllocs)
			if avg > maxReadBeginEndAllocs {
				t.Errorf("read begin/end regressed to %.1f allocs/op, ceiling %d", avg, maxReadBeginEndAllocs)
			}
		})
	}
}

// BenchmarkReadBeginEnd is the router layer's microbenchmark in the cost
// ledger: Coordinator.Read with an empty closure, by shard count, with
// nobody writing (every read shares one cut) and with a commit every 16
// reads (every 16th read builds one).
func BenchmarkReadBeginEnd(b *testing.B) {
	const readsPerCommit = 16
	for _, n := range []int{1, 4, 8} {
		for _, writer := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/quiet", n)
			if writer {
				name = fmt.Sprintf("shards=%d/commit-every-%d", n, readsPerCommit)
			}
			b.Run(name, func(b *testing.B) {
				c := openCutCoord(b, n, Options{NoSync: true, CheckpointBytes: -1})
				var rid oid.RID
				if err := cwriteH(c, 0, func(h *storage.Heap) error {
					var err error
					rid, err = h.Insert([]byte("0123456789abcdef"))
					return err
				}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if writer && i%readsPerCommit == 0 {
						if err := cwriteH(c, 0, func(h *storage.Heap) error {
							return h.Update(rid, []byte("fedcba9876543210"))
						}); err != nil {
							b.Fatal(err)
						}
					}
					if err := c.Read(nothing); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestViewSeesAckedPrefix: a View is the state at one instant. Commit A
// on shard 0 is acknowledged, then commit B begins and commits on shard
// 1; a View that holds B must hold A. Single-shard commits publish
// without excluding builders, so this rests on the generation recheck
// alone: A's publication bumps the generation before A is acknowledged,
// so a builder that pinned shard 0 before A and shard 1 after B sees the
// generation moved and discards its cut. The builder hook yields between
// the generation load and the pins of every other build, so that
// commits land inside builds, and every 16th build commits there
// itself, so that the recheck is exercised on every run — it must
// discard at least those cuts.
func TestViewSeesAckedPrefix(t *testing.T) {
	const commits = 200
	for _, n := range cutShardCounts {
		for _, nosync := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/nosync=%v", n, nosync), func(t *testing.T) {
				c := openCutCoord(t, n, Options{NoSync: nosync})
				sa, sb := 0, min(1, n-1)
				var ra, rb oid.RID
				for _, x := range []struct {
					s   int
					rid *oid.RID
				}{{sa, &ra}, {sb, &rb}} {
					if err := cwriteH(c, x.s, func(h *storage.Heap) error {
						var err error
						*x.rid, err = h.Insert([]byte{0, 0})
						return err
					}); err != nil {
						t.Fatal(err)
					}
				}
				// Every 16th build, from the first, commits on shard sa
				// itself, rewriting A's current value in one write
				// transaction, so that readers' a >= b is untouched: that
				// commit lands between the build's generation load and its
				// pins on every run, and the recheck must discard the cut.
				var builds, forced atomic.Uint64
				c.buildHook = func() {
					n := builds.Add(1)
					if n%16 == 1 {
						if err := cwriteH(c, sa, func(h *storage.Heap) error {
							cur, err := h.Read(ra)
							if err != nil {
								return err
							}
							return h.Update(ra, cur)
						}); err != nil {
							t.Error(err)
						}
						forced.Add(1)
					}
					if n%2 == 0 {
						runtime.Gosched() // every other build, so that some survive at GOMAXPROCS 1
					}
				}
				installed := c.cm.ReadSnapshotBuilds.Load()
				seq := func(r *ReadTx, s int, rid oid.RID) (uint16, error) {
					b, err := storage.NewHeap(r.View(s), nil).Read(rid)
					if err != nil {
						return 0, err
					}
					return uint16(b[0])<<8 | uint16(b[1]), nil
				}
				var stop atomic.Bool
				var reads atomic.Int64
				var wg sync.WaitGroup
				for reader := 0; reader < 2; reader++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for !stop.Load() {
							if err := c.Read(func(r *ReadTx) error {
								b, err := seq(r, sb, rb)
								if err != nil {
									return err
								}
								a, err := seq(r, sa, ra)
								if err != nil {
									return err
								}
								if a < b {
									return fmt.Errorf("a View holds B%d on shard %d but only A%d on shard %d, acknowledged before B%d began", b, sb, a, sa, b)
								}
								reads.Add(1)
								return nil
							}); err != nil {
								t.Error(err)
								return
							}
							runtime.Gosched()
						}
					}()
				}
				for i := 1; i <= commits && !t.Failed(); i++ {
					for _, x := range []struct {
						s   int
						rid oid.RID
					}{{sa, ra}, {sb, rb}} {
						if err := cwriteH(c, x.s, func(h *storage.Heap) error {
							return h.Update(x.rid, []byte{byte(i >> 8), byte(i)})
						}); err != nil {
							t.Fatal(err)
						}
						runtime.Gosched() // let the readers in at GOMAXPROCS 1 too
					}
				}
				stop.Store(true)
				wg.Wait()
				c.buildHook = nil
				discarded := builds.Load() - (c.cm.ReadSnapshotBuilds.Load() - installed)
				t.Logf("%d reads, %d cuts built, %d discarded by the generation recheck, %d builds raced by a commit of their own", reads.Load(), builds.Load(), discarded, forced.Load())
				if discarded == 0 {
					t.Error("no cut was discarded: the probe never raced a build against a commit")
				}
				if discarded < forced.Load() {
					t.Errorf("%d cuts discarded, fewer than the %d builds a commit raced", discarded, forced.Load())
				}
			})
		}
	}
}
