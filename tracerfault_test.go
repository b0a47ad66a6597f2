package ode_test

// Tracer-hook fault isolation: a tracer that panics, blocks forever, or
// is simply slow must never corrupt a commit, stall the pipeline, or
// change crash-recovery outcomes. Events past the bounded queue are
// dropped and counted — never waited for.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ode"
	"ode/internal/faultfs"
)

// recordingTracer collects every delivered span event.
type recordingTracer struct {
	mu     sync.Mutex
	events []ode.SpanEvent
}

func (r *recordingTracer) TraceSpan(ev ode.SpanEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recordingTracer) kinds() map[ode.SpanKind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[ode.SpanKind]int{}
	for _, ev := range r.events {
		out[ev.Kind]++
	}
	return out
}

// panicTracer panics on every delivery.
type panicTracer struct{}

func (panicTracer) TraceSpan(ode.SpanEvent) { panic("tracer exploded") }

// blockingTracer blocks forever on every delivery.
type blockingTracer struct{ block chan struct{} }

func (b blockingTracer) TraceSpan(ode.SpanEvent) { <-b.block }

func tracerWorkload(t *testing.T, db *ode.DB, commits int) {
	t.Helper()
	ty, err := ode.Register[Widget](db, "Widget")
	if err != nil {
		t.Fatal(err)
	}
	var p ode.Ptr[Widget]
	if err := db.Update(func(tx *ode.Tx) error {
		var err error
		p, err = ty.Create(tx, &Widget{Name: "w", Rev: 0})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < commits; i++ {
		i := i
		if err := db.Update(func(tx *ode.Tx) error {
			nv, err := p.NewVersion(tx)
			if err != nil {
				return err
			}
			return nv.Modify(tx, func(w *Widget) { w.Rev = i })
		}); err != nil {
			t.Fatalf("commit %d with hostile tracer: %v", i, err)
		}
	}
}

// TestTracerReceivesLifecycleEvents is the happy path: a well-behaved
// tracer sees the full span taxonomy for a commit-heavy run, in queue
// order, with begin/prepare/publish matching the commit count.
func TestTracerReceivesLifecycleEvents(t *testing.T) {
	rec := &recordingTracer{}
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Tracer: rec, CheckpointBytes: -1, Shards: envShardCount()})
	if err != nil {
		t.Fatal(err)
	}
	tracerWorkload(t, db, 8)
	// One deliberate abort and one checkpoint to cover those kinds too.
	wantErr := fmt.Errorf("boom")
	if err := db.Update(func(tx *ode.Tx) error {
		if _, err := ode.Register[Widget](db, "Widget"); err != nil {
			return err
		}
		return wantErr
	}); err != wantErr {
		t.Fatalf("abort returned %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Close flushes the queue: after it returns, every event emitted
	// before Close has been delivered or counted dropped.
	dropped := db.Metrics().TracerDropped
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("well-behaved tracer dropped %d events", dropped)
	}

	ks := rec.kinds()
	// init + register + create + 7 newversions = 10 committed writes;
	// each emits Begin, Prepare and Publish. The abort emits Begin and
	// Abort; the checkpoint emits Checkpoint; each fsync batch emits
	// Fsync.
	const committed = 10
	if ks[ode.SpanBegin] != committed+1 {
		t.Errorf("SpanBegin = %d, want %d", ks[ode.SpanBegin], committed+1)
	}
	if ks[ode.SpanPrepare] != committed {
		t.Errorf("SpanPrepare = %d, want %d", ks[ode.SpanPrepare], committed)
	}
	if ks[ode.SpanPublish] != committed {
		t.Errorf("SpanPublish = %d, want %d", ks[ode.SpanPublish], committed)
	}
	if ks[ode.SpanAbort] != 1 {
		t.Errorf("SpanAbort = %d, want 1", ks[ode.SpanAbort])
	}
	if ks[ode.SpanCheckpoint] != 1 {
		t.Errorf("SpanCheckpoint = %d, want 1", ks[ode.SpanCheckpoint])
	}
	if ks[ode.SpanFsync] == 0 || ks[ode.SpanFsync] > committed {
		t.Errorf("SpanFsync = %d, want 1..%d", ks[ode.SpanFsync], committed)
	}
	// Seq is assigned at emit: the delivered stream must be in order.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := 1; i < len(rec.events); i++ {
		if rec.events[i].Seq <= rec.events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i,
				rec.events[i-1].Seq, rec.events[i].Seq)
		}
	}
}

// TestTracerPanicDoesNotCorruptCommits: every delivery panics; all
// commits must still succeed, the store must stay structurally intact,
// and the panicked events are counted as dropped.
func TestTracerPanicDoesNotCorruptCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Tracer: panicTracer{}, CheckpointBytes: -1, Shards: envShardCount()})
	if err != nil {
		t.Fatal(err)
	}
	tracerWorkload(t, db, 20)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Delivery is asynchronous; wait for the consumer to have attempted
	// (and dropped) at least one event.
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().TracerDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panicking tracer never counted a drop")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the hostile tracer must not have affected durability.
	db2, err := ode.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerBlockedQueueDropsNotStalls: a tracer that never returns
// lets the queue fill; commits must keep completing at full speed,
// overflow events are dropped and counted, and Close must return within
// the bounded grace period instead of waiting for the tracer.
func TestTracerBlockedQueueDropsNotStalls(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{
		Tracer:          blockingTracer{block: block},
		CheckpointBytes: -1,
		Shards:          envShardCount(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// Four events a durable commit (begin, prepare, fsync, publish): past
	// the queue's capacity, and the one event the tracer sits on, by a
	// margin.
	const commits = ode.DefaultTracerBuffer/4 + 50
	tracerWorkload(t, db, commits)
	workDur := time.Since(start)
	if dropped := db.Metrics().TracerDropped; dropped == 0 {
		t.Error("blocked tracer queue never dropped")
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	closeStart := time.Now()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// closeGrace is 1s; generous bound so slow CI doesn't flake.
	if d := time.Since(closeStart); d > 10*time.Second {
		t.Fatalf("Close took %v with a blocked tracer", d)
	}
	t.Logf("%d durable commits in %v with a fully blocked tracer", commits, workDur)
}

// TestDebugListenerServesMetrics: the optional debug HTTP listener
// serves the Prometheus page and the JSON stats, and dies with the DB.
func TestDebugListenerServesMetrics(t *testing.T) {
	db, err := ode.Open(t.TempDir(), &ode.Options{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := db.DebugAddr()
	if addr == "" {
		t.Fatal("no debug address bound")
	}
	tracerWorkload(t, db, 5)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ode_commits_total", "ode_commit_latency_ns_bucket",
		"ode_wal_fsync_latency_ns_sum", "ode_versions",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ode.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits == 0 || st.Versions == 0 {
		t.Errorf("/stats implausible: %+v", st)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("debug listener still serving after Close")
	}
}

// TestEngineCrashMatrixPowerCutWithTracer reruns the power-cut crash
// matrix with a panicking tracer installed: recovery outcomes must be
// exactly as without tracing (same verification, same acked state).
func TestEngineCrashMatrixPowerCutWithTracer(t *testing.T) {
	withTracer := func(o *ode.Options) { o.Tracer = panicTracer{} }
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	if _, err := runVersionWorkloadOpts(dry, withTracer); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	ops := dry.Counts().Ops
	if ops < 10 {
		t.Fatalf("op space suspiciously small: %d", ops)
	}
	for n := uint64(1); n <= ops; n++ {
		mem := faultfs.NewMem()
		acked, _ := runVersionWorkloadOpts(faultfs.NewInjector(mem, faultfs.Plan{PowerCutAfterOps: n}), withTracer)
		if err := verifyVersionImage(mem.Crash(false), acked); err != nil {
			t.Errorf("powerCutAfter=%d with tracer: %v", n, err)
		}
	}
	t.Logf("crash matrix with panicking tracer: %d power-cut points", ops)
}
