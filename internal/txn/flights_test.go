package txn

// Pipelined group commit: a shard's fsyncs overlap, and its flights are
// still acknowledged — and failed — in log order.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"ode/internal/faultfs"
	"ode/internal/storage"
)

// TestYoungerFlightFailsWithOlder: the older of two flights fails its
// fsync after the younger one's fsync has succeeded. The younger flight
// was staged on the older one's effects, so it fails too: both are undone
// newest first — they share a heap page, so the other order would bring
// the older record back — and erased from the log, and no writer hears
// anything, success or failure, before the heal. Then the shard commits
// again.
func TestYoungerFlightFailsWithOlder(t *testing.T) {
	const dir = "/db"
	mem := faultfs.NewMem()
	fsys := &failOneSync{FS: mem, name: ShardWALFileName(1)}
	entered, release := make(chan struct{}), make(chan struct{})
	var syncs atomic.Int32
	syncs.Store(-1 << 30) // not counting yet
	fsys.onSync = func() error {
		if syncs.Add(1) == 1 {
			close(entered)
			<-release
			return faultfs.ErrInjected
		}
		return nil
	}
	opts := Options{Shards: 4, Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1, FS: fsys}
	c, err := OpenCoordinator(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := c.routing.Load().ms[1]
	if err := c.Write(insertOn("base", 1)); err != nil {
		t.Fatal(err)
	}
	// A flight leaves the pipeline just after its writers hear of it.
	waitFor(t, "the pipeline to drain", m.gc.pipelineIdle)

	syncs.Store(0)
	var heard atomic.Int32 // writers that have been told anything
	write := func(name string) chan error {
		ch := make(chan error, 1)
		go func() {
			err := c.Write(insertOn(name, 1))
			heard.Add(1)
			ch <- err
		}()
		return ch
	}
	older := write("older")
	<-entered
	younger := write("younger")
	waitFor(t, "the younger flight's fsync to succeed", func() bool {
		m.gc.qmu.Lock()
		defer m.gc.qmu.Unlock()
		// An acknowledgement out of log order ends the wait too, and fails
		// the test below.
		return heard.Load() > 0 || len(m.gc.flights) == 2 && m.gc.flights[1].synced && m.gc.flights[1].err == nil
	})
	healed := false
	fsys.onTruncate = func() {
		healed = true
		if m.mu.TryLock() {
			m.mu.Unlock()
			t.Error("WAL healed with the writer mutex free: a writer could stage on doomed state")
		}
		if n := heard.Load(); n != 0 {
			t.Errorf("%d writers were acknowledged before the WAL was healed", n)
		}
	}
	close(release)
	for name, ch := range map[string]chan error{"older": older, "younger": younger} {
		if err := <-ch; !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("%s returned %v", name, err)
		}
	}
	if !healed {
		t.Fatal("the failed flights were not truncated out of the WAL")
	}
	for _, r := range logRecords(t, mem, dir+"/"+ShardWALFileName(1)) {
		if bytes.Contains(r.Data, []byte("older")) || bytes.Contains(r.Data, []byte("younger")) {
			t.Errorf("record at %v still carries a failed flight's payload", r.LSN)
		}
	}

	if err := c.Write(insertOn("after", 1)); err != nil {
		t.Fatalf("the shard did not heal: %v", err)
	}
	want := [][]string{nil, {"after", "base"}, nil, nil}
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
}

// TestAckedFlightsAreUnreachable: once a flight is acknowledged, nothing
// of the pipeline's may keep it — nor, through its batch, its members'
// trackers and before-images — alive. Linking each flight to the one
// before it, to acknowledge in order, kept every flight ever committed
// reachable from the newest.
func TestAckedFlightsAreUnreachable(t *testing.T) {
	fsys := &failOneSync{FS: faultfs.NewMem(), name: WALFileName}
	entered, release := make(chan struct{}), make(chan struct{})
	var syncs atomic.Int32
	syncs.Store(-1 << 30) // not counting yet
	fsys.onSync = func() error {
		if syncs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil
	}
	m, err := Create("/db", Options{Storage: storage.Options{PageSize: 512}, CheckpointBytes: -1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	insert := func(payload string) func(*storage.TxView) error {
		return func(v *storage.TxView) error {
			_, err := storage.NewHeap(v, nil).Insert([]byte(payload))
			return err
		}
	}

	syncs.Store(0)
	first := make(chan error, 1)
	go func() { first <- m.Write(insert("first")) }()
	<-entered
	m.gc.qmu.Lock()
	flight := weak.Make(m.gc.flights[0])
	tracker := weak.Make(m.gc.flights[0].batch[0].tr)
	m.gc.qmu.Unlock()
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := m.Write(insert(fmt.Sprintf("next-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	if flight.Value() != nil {
		t.Error("the first flight is still reachable after 16 more commits")
	}
	if tracker.Value() != nil {
		t.Error("the first flight's tracker is still reachable after 16 more commits")
	}
}

// TestShardRunsOneBackgroundGoroutine: the writers run the commit
// pipeline themselves, so a shard's one background goroutine is its
// checkpointer — idle, and right after a burst of commits, with NoSync
// and without. Writers lead their flights and fsync them on their own
// goroutines; none is left behind once they return.
func TestShardRunsOneBackgroundGoroutine(t *testing.T) {
	const shards, writers, perWriter = 4, 8, 25
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("NoSync=%v", noSync), func(t *testing.T) {
			base := goroutineStacks()
			c, err := OpenCoordinator("/db", Options{Shards: shards, NoSync: noSync, Storage: storage.Options{PageSize: 512}, FS: faultfs.NewMem()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			onePerShard := func(when string) {
				t.Helper()
				var extra []string
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					extra = extra[:0]
					for id, stack := range goroutineStacks() {
						if _, ok := base[id]; !ok {
							extra = append(extra, stack)
						}
					}
					if len(extra) == shards || time.Now().After(deadline) {
						break
					}
				}
				for _, stack := range extra {
					// startPipeline launches the checkpointer and nothing else.
					if !strings.Contains(stack, "created by ode/internal/txn.(*Manager).startPipeline") {
						t.Errorf("%s: a background goroutine besides the checkpointers:\n%s", when, stack)
					}
				}
				if len(extra) != shards {
					t.Errorf("%s: %d background goroutines on %d shards, want one checkpointer each", when, len(extra), shards)
				}
			}
			onePerShard("idle")

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						if err := c.Write(insertOn(fmt.Sprintf("w%d-%d", w, i), w%shards)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for s, m := range c.ms() {
				waitFor(t, fmt.Sprintf("shard %d's pipeline to drain", s), m.gc.pipelineIdle)
			}
			onePerShard("after a burst of commits")
		})
	}
}

// goroutineStacks returns every goroutine's stack by goroutine id.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, stack := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " "); ok {
			stacks[id] = stack
		}
	}
	return stacks
}

// TestNoRequestStranded: with no committer goroutine, a queued request
// is only ever claimed by a writer waiting in await, so each way out of
// a wait must wake one. One shard's maxFlights flights park in their
// fsyncs; maxBatch commits queue behind them, then a 2PC prepare, whose
// owner holds the writer mutex; then Close starts while all of them
// wait. Once the fsyncs return, a landing flight wakes the queued
// writers, one of them leads the maxBatch commits, and the prepare —
// left queued alone, with nobody behind it — must lead its own flight.
// Every writer returns and Close finishes with nothing queued or in
// flight. At GOMAXPROCS 1 a missed wake-up hangs rather than passing by
// luck.
func TestNoRequestStranded(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
			waitFor(t, "the pipeline to drain", m.gc.pipelineIdle)
			release := make(chan struct{})
			fsys.onSync = func() error { <-release; return nil }
			pipeline := func(q, f int) {
				t.Helper()
				waitFor(t, fmt.Sprintf("%d queued and %d flights", q, f), func() bool {
					m.gc.qmu.Lock()
					defer m.gc.qmu.Unlock()
					return len(m.gc.q) == q && len(m.gc.flights) == f
				})
			}

			var returned atomic.Int32
			errs := map[string]chan error{}
			write := func(name string, on ...int) {
				ch := make(chan error, 1)
				errs[name] = ch
				go func() {
					err := c.Write(insertOn(name, on...))
					returned.Add(1)
					ch <- err
				}()
			}
			want1 := []string{"base"}
			for i := 0; i < maxFlights; i++ {
				name := fmt.Sprintf("flight-%d", i)
				write(name, 1)
				want1 = append(want1, name)
				pipeline(0, i+1)
			}
			for i := 0; i < maxBatch; i++ {
				name := fmt.Sprintf("queued-%02d", i)
				write(name, 1)
				want1 = append(want1, name)
			}
			pipeline(maxBatch, maxFlights)
			write("prepare", 1, 2)
			want1 = append(want1, "prepare")
			pipeline(maxBatch+1, maxFlights)

			closed := make(chan error, 1)
			go func() { closed <- c.Close() }()
			waitFor(t, "Close to start on the shard", m.isClosed)
			if n := returned.Load(); n != 0 {
				t.Fatalf("%d writers returned with every fsync parked", n)
			}
			close(release)
			for name, ch := range errs {
				select {
				case err := <-ch:
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s never returned: its request was stranded", name)
				}
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close never returned")
			}
			for s, sm := range c.ms() {
				if !sm.gc.pipelineIdle() {
					t.Errorf("shard %d: requests left queued or in flight after Close", s)
				}
			}

			c2, err := OpenCoordinator(dir, Options{Shards: 4, Storage: storage.Options{PageSize: 512}, FS: mem})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			slices.Sort(want1)
			want := [][]string{nil, want1, {"prepare"}, nil}
			if got := payloads(t, c2); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened: shards hold %q, want %q", got, want)
			}
		})
	}
}
