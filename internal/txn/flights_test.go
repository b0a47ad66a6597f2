package txn

// Pipelined group commit: a shard's fsyncs overlap, and its flights are
// still acknowledged — and failed — in log order.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
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
