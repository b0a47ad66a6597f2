package txn

// Staged frames come from a pool and go back to it at the request's
// acknowledgement — on every path: a durable batch, a failed batch
// (failFlights), a failed 2PC prepare. Returned any earlier, the next
// writer would stage into a buffer a flight's leader is still splicing
// into the log. This test drives all three paths on the sharded coordinator
// with eight concurrent committers; run under -race (make race / make
// matrix) a premature recycle is a reported data race, and in any mode
// it corrupts the WAL, which the crash-and-reopen check at the end
// would see as a lost or mangled acked commit.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

// failOneSync fails the next Sync of the file named name after arm().
// onSync, onWrite and onTruncate, when set, run first in every Sync /
// WriteAt / Truncate of that file (set them before the calls they are to
// observe); an error from onSync fails that Sync.
type failOneSync struct {
	faultfs.FS
	name       string
	armed      atomic.Bool
	onSync     func() error
	onWrite    func()
	onTruncate func()
}

func (f *failOneSync) arm() { f.armed.Store(true) }

func (f *failOneSync) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	h, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != f.name {
		return h, err
	}
	return &failOneSyncFile{File: h, fs: f}, nil
}

type failOneSyncFile struct {
	faultfs.File
	fs *failOneSync
}

func (h *failOneSyncFile) Sync() error {
	if h.fs.onSync != nil {
		if err := h.fs.onSync(); err != nil {
			return err
		}
	}
	if h.fs.armed.CompareAndSwap(true, false) {
		return faultfs.ErrInjected
	}
	return h.File.Sync()
}

func (h *failOneSyncFile) WriteAt(p []byte, off int64) (int, error) {
	if h.fs.onWrite != nil {
		h.fs.onWrite()
	}
	return h.File.WriteAt(p, off)
}

func (h *failOneSyncFile) Truncate(size int64) error {
	if h.fs.onTruncate != nil {
		h.fs.onTruncate()
	}
	return h.File.Truncate(size)
}

func TestFramesRecycledOnlyAfterAck(t *testing.T) {
	const (
		shards     = 4
		committers = 8
		perWriter  = 12
		dir        = "/db"
	)
	mem := faultfs.NewMem()
	fsys := &failOneSync{FS: mem, name: ShardWALFileName(1)}
	opts := Options{
		Shards:          shards,
		Storage:         storage.Options{PageSize: 512},
		CheckpointBytes: -1,
		FS:              fsys,
	}
	c, err := OpenCoordinator(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		shards  []int
		payload string
		err     error
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	// write inserts payload on every listed shard in one transaction.
	write := func(payload string, on ...int) error {
		o := outcome{shards: on, payload: payload}
		o.err = c.Write(insertOn(payload, on...))
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
		return o.err
	}
	// storm runs the committers: writer w commits on shard w%4, every
	// third transaction also on the next shard up (a 2PC). armAt, when
	// >= 0, arms the fsync failure as writer 1 reaches that transaction.
	storm := func(round string, armAt int) {
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if w == 1 && i == armAt {
						fsys.arm()
					}
					on := []int{w % shards}
					if i%3 == 2 && w%shards < shards-1 && armAt < 0 {
						on = append(on, w%shards+1)
					}
					err := write(fmt.Sprintf("%s-w%d-c%02d-abcdefghijklmnopqrstuvwxyz", round, w, i), on...)
					if err != nil && !errors.Is(err, faultfs.ErrInjected) {
						t.Errorf("%s writer %d commit %d: %v", round, w, i, err)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Round 1: single-shard commits only, so the one failed fsync on
	// shard 1's WAL is a commit flight — the failFlights path. (With 2PC in
	// the mix it could land on a shard-local decide, which poisons.)
	storm("r1", perWriter/2)
	failed := 0
	for _, o := range outcomes {
		if o.err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("the injected batch fsync failure took no commit down")
	}
	// The shard healed: it commits again.
	if err := write("r1-healed", 1); err != nil {
		t.Fatalf("shard 1 did not heal after the failed batch: %v", err)
	}

	// A failed 2PC prepare: alone, so the armed fsync is exactly shard
	// 1's prepare batch. The coordinator rolls the transaction back.
	fsys.arm()
	if err := write("prepare-fails", 1, 2); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("2PC over a failing prepare fsync returned %v", err)
	}

	// Round 2: everything at once, nothing failing — recycled buffers
	// from all three ack paths are now being handed back out.
	storm("r2", -1)

	// Power cut; reopen. Acked transactions are intact on every shard
	// they touched, failed ones are absent from all of them.
	c2, err := OpenCoordinator(dir, Options{Shards: shards, Storage: storage.Options{PageSize: 512}, FS: mem.Crash(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	present := make([]map[string]bool, shards)
	if err := c2.Read(func(r *ReadTx) error {
		for s := range present {
			present[s] = map[string]bool{}
			if err := storage.NewHeap(r.View(s), nil).Scan(func(_ oid.RID, data []byte) (bool, error) {
				present[s][string(data)] = true
				return true, nil
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		for _, s := range o.shards {
			if o.err == nil && !present[s][o.payload] {
				t.Errorf("acked %q missing or mangled on shard %d", o.payload, s)
			}
			if o.err != nil && present[s][o.payload] {
				t.Errorf("failed %q resurfaced on shard %d", o.payload, s)
			}
		}
	}
}

// TestFailedBatchWithPrepareWaiting fails a flight's fsync while a 2PC
// owner waits, under the shard's writer mutex, for its prepare — queued
// behind the flights, or the last member of the youngest flight, which
// fails itself or goes down with an older one. The pipeline cannot take
// the mutex then; it must undo everything newest first and heal the WAL
// under the owner's hold, before any writer hears of the failure.
// (Taking the mutex deadlocks against the owner. Acking the prepare
// first and locking afterwards let the next writer in between: aborted
// for nothing, or deadlocked if itself a 2PC.) Nothing may be undone
// twice either: commit A and the prepare of B share a heap page, B's
// before-images hold A's bytes, and restoring them again after A's
// rollback would bring A back.
//
// A flight is claimed as soon as there is room for one, so the requests
// are made to queue by holding the log: the writer leading a flight parks
// appending it, holding the committer token, and what is submitted
// meanwhile waits in the queue.
func TestFailedBatchWithPrepareWaiting(t *testing.T) {
	for _, tc := range []struct {
		name string
		// queued: B's prepare is still queued when the blocker's fsync
		// fails, behind A's flight; otherwise A and B share the flight
		// after the blocker's.
		queued   bool
		failSync int32 // which fsync fails: 1 = the blocker's, 2 = the flight after it
		want1    []string
	}{
		{"queued behind the batch", true, 1, []string{"after", "after-2pc", "base"}},
		{"last in the batch", false, 2, []string{"after", "after-2pc", "base", "blocker"}},
		{"last in the batch, an older one fails", false, 1, []string{"after", "after-2pc", "base"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const dir = "/db"
			mem := faultfs.NewMem()
			fsys := &failOneSync{FS: mem, name: ShardWALFileName(1)}
			entered, release := make(chan struct{}), make(chan struct{})
			var syncs, writes atomic.Int32
			syncs.Store(-1 << 30) // not counting yet
			writes.Store(-1 << 30)
			fsys.onSync = func() error {
				n := syncs.Add(1)
				if n == 1 {
					close(entered)
					<-release
				}
				if n == tc.failSync {
					return faultfs.ErrInjected
				}
				return nil
			}
			// The flight after the blocker's reaches the file only once the
			// blocker's fsync is parked: its leader releases the committer
			// token before it fsyncs, and this keeps the blocker's the first.
			fsys.onWrite = func() {
				if writes.Add(1) == 2 {
					<-entered
				}
			}
			opts := Options{Shards: 4, Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1, FS: fsys}
			c, err := OpenCoordinator(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := c.routing.Load().ms[1]
			// pipeline waits until shard 1 has q requests queued and f
			// flights claimed.
			pipeline := func(q, f int) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					m.gc.qmu.Lock()
					gotQ, gotF := len(m.gc.q), len(m.gc.flights)
					m.gc.qmu.Unlock()
					if gotQ == q && gotF == f {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("shard 1 holds %d queued requests and %d flights, want %d and %d", gotQ, gotF, q, f)
					}
				}
			}
			if err := c.Write(insertOn("base", 1)); err != nil {
				t.Fatal(err)
			}
			// A flight leaves the pipeline just after its writers hear of it.
			pipeline(0, 0)

			syncs.Store(0)
			writes.Store(0)
			errs := map[string]chan error{}
			var failed atomic.Int32 // writers that have been told of a failure
			write := func(name string, on ...int) {
				errs[name] = make(chan error, 1)
				ch := errs[name]
				go func() {
					err := c.Write(insertOn(name, on...))
					if err != nil {
						failed.Add(1)
					}
					ch <- err
				}()
			}
			if tc.queued {
				// The blocker's fsync parks; A's flight parks on the log;
				// B's prepare queues behind it.
				write("blocker", 1)
				<-entered
				m.logMu.Lock()
				write("A", 1)
				pipeline(0, 2)
				write("B", 1, 2)
				pipeline(1, 2)
			} else {
				// The blocker's flight parks on the log; A and B's prepare
				// queue behind it and leave together as the next flight.
				m.logMu.Lock()
				write("blocker", 1)
				pipeline(0, 1)
				write("A", 1)
				pipeline(1, 1)
				write("B", 1, 2)
				pipeline(2, 1)
			}
			healed := false
			fsys.onTruncate = func() {
				healed = true
				if m.mu.TryLock() {
					m.mu.Unlock()
					t.Error("WAL healed with the writer mutex free: a writer could stage on doomed state")
				}
				if n := failed.Load(); n != 0 {
					t.Errorf("%d writers heard of the failure before the WAL was healed", n)
				}
			}
			if tc.queued {
				// Let the blocker's fsync fail, and A's flight reach the
				// file only once that has stopped the claims: B stays queued.
				close(release)
				waitFor(t, "the failure to stop the claims", func() bool {
					m.gc.qmu.Lock()
					defer m.gc.qmu.Unlock()
					return m.gc.failing != nil
				})
				m.logMu.Unlock()
			} else {
				m.logMu.Unlock()
				<-entered
				pipeline(0, 2)
				close(release)
			}
			for _, name := range []string{"blocker", "A", "B"} {
				err := <-errs[name]
				if name == "blocker" && tc.failSync == 2 {
					if err != nil {
						t.Fatalf("blocker: %v", err)
					}
				} else if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%s over the failing fsync returned %v", name, err)
				}
			}
			if !healed {
				t.Fatal("the failed flights were not truncated out of the WAL")
			}

			// The shard healed, for commits and for prepares.
			if err := c.Write(insertOn("after", 1)); err != nil {
				t.Fatal(err)
			}
			if err := c.Write(insertOn("after-2pc", 1, 2)); err != nil {
				t.Fatal(err)
			}
			want := [][]string{nil, tc.want1, {"after-2pc"}, nil}
			check := func(c *Coordinator, when string) {
				t.Helper()
				if got := payloads(t, c); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: shards hold %q, want %q", when, got, want)
				}
			}
			check(c, "live")
			c2, err := OpenCoordinator(dir, Options{Shards: 4, Storage: storage.Options{PageSize: 512}, FS: mem.Crash(false)})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			check(c2, "after power cut")
		})
	}
}

// payloads returns every shard's heap records, sorted.
func payloads(t *testing.T, c *Coordinator) [][]string {
	t.Helper()
	var out [][]string
	if err := c.Read(func(r *ReadTx) error {
		out = make([][]string, r.N())
		for s := range out {
			if err := storage.NewHeap(r.View(s), nil).Scan(func(_ oid.RID, data []byte) (bool, error) {
				out[s] = append(out[s], string(data))
				return true, nil
			}); err != nil {
				return err
			}
			sort.Strings(out[s])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSubmitRefusedWhileBatchFails: a batch fsync fails while another
// writer is inside its transaction on the shard. That writer staged on
// the failed batch's effects, so it must go down with it — and it must
// not be queued: the writer landing the failed batch is waiting for the
// writer mutex, and a 2PC owner queued now would wait for the heal under
// that mutex. submit fails it on the spot, it rolls back first (it is the
// newest), and the landing writer then undoes the batch.
func TestSubmitRefusedWhileBatchFails(t *testing.T) {
	for _, on := range [][]int{{1}, {1, 2}} {
		t.Run(fmt.Sprintf("writer on %v", on), func(t *testing.T) {
			const dir = "/db"
			mem := faultfs.NewMem()
			fsys := &failOneSync{FS: mem, name: ShardWALFileName(1)}
			opts := Options{Shards: 4, Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1, FS: fsys}
			c, err := OpenCoordinator(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := c.routing.Load().ms[1]
			if err := c.Write(insertOn("base", 1)); err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan struct{}), make(chan struct{})
			fsys.onSync = func() error {
				fsys.onSync = nil // the doomed flight's leader is the only caller
				close(entered)
				<-release
				return faultfs.ErrInjected
			}
			doomed := make(chan error, 1)
			go func() { doomed <- c.Write(insertOn("doomed", 1)) }()
			<-entered
			inFn, finish := make(chan struct{}), make(chan struct{})
			late := make(chan error, 1)
			go func() {
				late <- c.Write(func(w *WriteTx) error {
					if err := insertOn("late", on...)(w); err != nil {
						return err
					}
					close(inFn)
					<-finish
					return nil
				})
			}()
			<-inFn
			close(release)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				m.gc.qmu.Lock()
				failing := m.gc.failing
				m.gc.qmu.Unlock()
				if failing != nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the failed batch's heal never asked for the writer mutex")
				}
			}
			close(finish)
			for name, ch := range map[string]chan error{"doomed": doomed, "late": late} {
				if err := <-ch; !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%s returned %v", name, err)
				}
			}
			if err := c.Write(insertOn("after", on...)); err != nil {
				t.Fatal(err)
			}
			want := [][]string{nil, {"after", "base"}, nil, nil}
			if len(on) == 2 {
				want[2] = []string{"after"}
			}
			if got := payloads(t, c); !reflect.DeepEqual(got, want) {
				t.Errorf("live: shards hold %q, want %q", got, want)
			}
			c2, err := OpenCoordinator(dir, Options{Shards: 4, Storage: storage.Options{PageSize: 512}, FS: mem.Crash(false)})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if got := payloads(t, c2); !reflect.DeepEqual(got, want) {
				t.Errorf("after power cut: shards hold %q, want %q", got, want)
			}
		})
	}
}
