package ode

// Stats()/Metrics() accuracy: table-driven scripts whose every counter
// has a hand-computed expectation, plus the torn-read regression test
// for the Commits/Batches pair.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errStatsAbort = errors.New("stats: deliberate abort")

// statsScript runs k creating commits, one empty commit, j aborts and a
// final checkpoint against db, using the raw API so every commit is one
// object create.
func statsScript(t *testing.T, db *DB, k, j int) {
	t.Helper()
	tid, err := db.Engine().RegisterType("StatsBlob")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, _, err := tx.CreateRaw(tid, []byte(fmt.Sprintf("obj-%d", i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One empty commit: no pages dirtied, so it bumps Commits but joins
	// no fsync batch.
	if err := db.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < j; i++ {
		err := db.Update(func(tx *Tx) error {
			if _, _, err := tx.CreateRaw(tid, []byte("doomed")); err != nil {
				return err
			}
			return errStatsAbort
		})
		if !errors.Is(err, errStatsAbort) {
			t.Fatalf("abort %d returned %v", i, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccuracy(t *testing.T) {
	const k, j = 5, 3
	// Expected commits: init-structures (1) + RegisterType (1) + k
	// creates + 1 empty commit. Batches: every sequential non-empty commit
	// is its own committer batch — the empty commit never enters the
	// pipeline — with or without NoSync, which only skips the fsync.
	const wantCommits = 2 + k + 1
	cases := []struct {
		name        string
		opts        Options
		wantBatches uint64
	}{
		{"grouped", Options{CheckpointBytes: -1}, 2 + k},
		{"nosync", Options{CheckpointBytes: -1, NoSync: true}, 2 + k},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, &tc.opts)
			statsScript(t, db, k, j)

			st := db.Stats()
			if st.Commits != wantCommits {
				t.Errorf("Commits = %d, want %d", st.Commits, wantCommits)
			}
			if st.Aborts != j {
				t.Errorf("Aborts = %d, want %d", st.Aborts, j)
			}
			if st.Objects != k {
				t.Errorf("Objects = %d, want %d", st.Objects, k)
			}
			if st.Versions != k {
				t.Errorf("Versions = %d, want %d", st.Versions, k)
			}
			if st.Checkpoints != 1 {
				t.Errorf("Checkpoints = %d, want 1", st.Checkpoints)
			}
			if st.Batches != tc.wantBatches {
				t.Errorf("Batches = %d, want %d", st.Batches, tc.wantBatches)
			}
			if st.RecoveredTxns != 0 {
				t.Errorf("RecoveredTxns = %d, want 0", st.RecoveredTxns)
			}
			// The checkpoint was the last durable act: the WAL is back
			// to its 8-byte header.
			if st.WALBytes != 8 {
				t.Errorf("WALBytes = %d, want 8 after checkpoint", st.WALBytes)
			}

			ms := db.Metrics()
			if ms.CommitLatency.Count != st.Commits {
				t.Errorf("CommitLatency.Count = %d, want %d", ms.CommitLatency.Count, st.Commits)
			}
			if ms.CheckpointDuration.Count != 1 {
				t.Errorf("CheckpointDuration.Count = %d, want 1", ms.CheckpointDuration.Count)
			}
			if ms.BatchSize.Count != st.Batches {
				t.Errorf("BatchSize.Count = %d, want %d", ms.BatchSize.Count, st.Batches)
			}
			// Every batched commit was non-empty, so the batch-size
			// histogram sums to the non-empty commit count.
			if ms.BatchSize.Sum != wantCommits-1 {
				t.Errorf("Sum(BatchSize) = %d, want %d", ms.BatchSize.Sum, wantCommits-1)
			}
			if !tc.opts.NoSync && ms.WALFsyncLatency.Count == 0 {
				t.Error("durable run recorded no WAL fsyncs")
			}
			if ms.DprevWalkLen.Count != 0 || ms.TprevWalkLen.Count != 0 {
				t.Errorf("walk histograms populated without walks: %d/%d",
					ms.DprevWalkLen.Count, ms.TprevWalkLen.Count)
			}
		})
	}
}

// TestStatsReaderCounters pins what the reader families mean now that
// Views share one read snapshot between commits: ReaderPins and
// ActiveReaders count Views, ReadSnapshotBuilds counts snapshots, and the
// share of Views that reused one is 1 − builds/pins.
func TestStatsReaderCounters(t *testing.T) {
	db := openDB(t, &Options{CheckpointBytes: -1, NoSync: true})
	tid, err := db.Engine().RegisterType("StatsBlob")
	if err != nil {
		t.Fatal(err)
	}
	var o OID
	if err := db.Update(func(tx *Tx) error {
		var err error
		o, _, err = tx.CreateRaw(tid, []byte("v"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	view := func(inside func()) {
		t.Helper()
		if err := db.View(func(tx *Tx) error {
			if inside != nil {
				inside()
			}
			_, _, err := tx.ReadLatestRaw(o)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// since reports how far the counters moved, not counting the read
	// db.Metrics makes itself (its Stats half runs before it loads them).
	since := func(before Metrics) (pins, builds uint64) {
		after := db.Metrics()
		return after.ReaderPins - before.ReaderPins - 1, after.ReadSnapshotBuilds - before.ReadSnapshotBuilds
	}

	const k = 7
	base := db.Metrics() // its read built (or shared) the current snapshot
	for i := 0; i < k; i++ {
		view(nil)
	}
	if pins, builds := since(base); pins != k || builds != 0 {
		t.Errorf("%d Views with no commit between: %d pins, %d builds; want %d, 0", k, pins, builds, k)
	}

	base = db.Metrics()
	for i := 0; i < k; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := tx.UpdateLatestRaw(o, []byte{byte(i)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		view(nil)
	}
	if pins, builds := since(base); pins != k || builds != k {
		t.Errorf("%d Views each after a commit: %d pins, %d builds; want %d, %d", k, pins, builds, k, k)
	}

	view(func() {
		if got := db.Metrics().ActiveReaders; got != 1 {
			t.Errorf("ActiveReaders = %d inside a View, want 1", got)
		}
	})
	if got := db.Metrics().ActiveReaders; got != 0 {
		t.Errorf("ActiveReaders = %d at rest", got)
	}

	var page strings.Builder
	if err := db.WriteMetrics(&page); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"ode_reader_pins_total ", "ode_active_readers 0", "ode_read_snapshot_builds_total "} {
		if !strings.Contains(page.String(), series) {
			t.Errorf("metrics page has no %q", series)
		}
	}
}

// TestStatsWriteLedger: the write path's cost is derivable from the
// engine's own counters — what commits staged for the log by record
// kind (their bytes are the log's growth, short only of the begin and
// commit records), the dirty pages a checkpoint will have to write, and
// which trigger fired the automatic ones.
func TestStatsWriteLedger(t *testing.T) {
	db, err := Open(t.TempDir()+"/db", &Options{Shards: 1, PageSize: 512, PoolPages: 32, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.Engine().RegisterType("LedgerBlob")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := db.Metrics()
	if base.DirtyPages != 0 {
		t.Fatalf("%d dirty pages right after a checkpoint", base.DirtyPages)
	}
	var o OID
	commit := func(i int) {
		t.Helper()
		if err := db.Update(func(tx *Tx) (err error) {
			if i == 0 {
				o, _, err = tx.CreateRaw(tid, []byte("v0"))
				return err
			}
			_, err = tx.UpdateLatestRaw(o, []byte(fmt.Sprintf("v%d", i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		commit(i)
	}
	ms := db.Metrics()
	images, deltas := ms.WALPageImages-base.WALPageImages, ms.WALPageDeltas-base.WALPageDeltas
	if images == 0 || deltas == 0 {
		t.Fatalf("four commits on the same pages staged %d images and %d deltas", images, deltas)
	}
	if ms.DirtyPages != int64(images) {
		t.Fatalf("%d dirty pages, %d pages imaged since the checkpoint: every dirty page is logged whole exactly once", ms.DirtyPages, images)
	}
	staged := int64(ms.WALPageImageBytes - base.WALPageImageBytes + ms.WALPageDeltaBytes - base.WALPageDeltaBytes)
	grown := ms.WALBytes - base.WALBytes
	// Begin and commit records: 13 framed bytes each at these small ids.
	if staged >= grown || grown-staged > 4*2*16 {
		t.Fatalf("staged %d bytes of page records, the log grew %d", staged, grown)
	}
	if perDelta := (ms.WALPageDeltaBytes - base.WALPageDeltaBytes) / deltas; perDelta >= 512/2 {
		t.Fatalf("a delta of a few bytes' change averages %d bytes on a 512-byte page", perDelta)
	}
	// Dirty pages reach three quarters of the 32-page pool long before
	// the log reaches 8 MiB.
	for i := 4; ms.CheckpointsByDirtyPages == 0 && i < 400; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, _, err := tx.CreateRaw(tid, make([]byte, 300))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		ms = db.Metrics()
	}
	// The checkpointer runs in the background; wait for the ones kicked.
	for deadline := time.Now().Add(5 * time.Second); ms.Checkpoints-base.Checkpoints < ms.CheckpointsByDirtyPages && time.Now().Before(deadline); {
		runtime.Gosched()
		ms = db.Metrics()
	}
	if ms.CheckpointsByDirtyPages == 0 || ms.CheckpointsByWALBytes != 0 || ms.Checkpoints < ms.CheckpointsByDirtyPages {
		t.Fatalf("checkpoints: %d, by dirty pages %d, by log size %d", ms.Checkpoints, ms.CheckpointsByDirtyPages, ms.CheckpointsByWALBytes)
	}
	if ms.DirtyPages >= 24 {
		t.Fatalf("%d dirty pages in a 32-page pool right after a checkpoint", ms.DirtyPages)
	}
	var page strings.Builder
	if err := db.WriteMetrics(&page); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"ode_wal_page_images_total ", "ode_wal_page_image_bytes_total ", "ode_wal_page_deltas_total ",
		"ode_wal_page_delta_bytes_total ", "ode_pool_dirty_pages ", "ode_checkpoints_by_wal_bytes_total 0",
		"ode_checkpoints_by_dirty_pages_total ",
	} {
		if !strings.Contains(page.String(), series) {
			t.Errorf("metrics page has no %q", series)
		}
	}
}

// TestStatsTornReadRegression pins Commits >= Batches under concurrent
// polls. No lock keeps the pair together: a committer adds to Commits
// before it observes BatchSize (whose count is Batches), and Stats()
// loads every registry's batch count before any registry's Commits, so
// a reader that loaded them the other way round could observe the
// impossible state Batches > Commits. Stats() must never return it, no
// matter how many commits and batch publications land mid-poll.
func TestStatsTornReadRegression(t *testing.T) {
	const committers = 4
	const perCommitter = 40
	db := openDB(t, &Options{CheckpointBytes: -1})
	tid, err := db.Engine().RegisterType("TornBlob")
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]OID, committers)
	if err := db.Update(func(tx *Tx) error {
		for i := range objs {
			o, _, err := tx.CreateRaw(tid, []byte("x"))
			if err != nil {
				return err
			}
			objs[i] = o
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		committerWG sync.WaitGroup
		pollerWG    sync.WaitGroup
		stop        atomic.Bool
	)
	for i := 0; i < committers; i++ {
		committerWG.Add(1)
		go func(o OID) {
			defer committerWG.Done()
			for n := 0; n < perCommitter; n++ {
				if err := db.Update(func(tx *Tx) error {
					_, err := tx.UpdateLatestRaw(o, []byte(fmt.Sprintf("v%d", n)))
					return err
				}); err != nil {
					t.Errorf("committer: %v", err)
					return
				}
			}
		}(objs[i])
	}
	// Pollers hammer Stats() while the committers run; every snapshot
	// must be internally consistent.
	for p := 0; p < 2; p++ {
		pollerWG.Add(1)
		go func() {
			defer pollerWG.Done()
			for {
				st := db.Stats()
				if st.Batches > st.Commits {
					t.Errorf("torn read: Batches (%d) > Commits (%d)", st.Batches, st.Commits)
					return
				}
				if stop.Load() {
					return
				}
			}
		}()
	}
	committerWG.Wait()
	stop.Store(true)
	pollerWG.Wait()

	st := db.Stats()
	want := uint64(2 + 1 + committers*perCommitter) // init + register + seed + updates
	if st.Commits != want {
		t.Errorf("Commits = %d, want %d", st.Commits, want)
	}
}

// TestWriterLockHoldObserved: every release of a shard's writer mutex
// observes how long it was held, and every Update on one shard takes it
// once, so with no checkpoint running the holds counted match the waits.
func TestWriterLockHoldObserved(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{Shards: 1, NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	const updates = 20
	payload := make([]byte, 64)
	for i := 0; i < updates; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := blobs.Create(tx, &payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Metrics()
	waits := after.WriterLockWait.Count - before.WriterLockWait.Count
	holds := after.WriterLockHold.Count - before.WriterLockHold.Count
	if waits != updates || holds != updates {
		t.Fatalf("%d Updates: %d waits and %d holds observed, want one of each per Update", updates, waits, holds)
	}
	if after.WriterLockHold.Sum == before.WriterLockHold.Sum {
		t.Error("the holds observed took no time")
	}
}
