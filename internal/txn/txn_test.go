package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

func createDB(t *testing.T, opts Options) (*Manager, string) {
	t.Helper()
	dir := t.TempDir()
	m, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, dir
}

func TestCommitVisibleAfterReopen(t *testing.T) {
	m, dir := createDB(t, Options{})
	var rid oid.RID
	err := writeH(m, func(h *storage.Heap) error {
		var err error
		rid, err = h.Insert([]byte("durable"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var got []byte
	err = readH(m2, func(h2 *storage.Heap) error {
		var err error
		got, err = h2.Read(rid)
		return err
	})
	if err != nil || string(got) != "durable" {
		t.Fatalf("read after reopen: %q %v", got, err)
	}
}

// crashReopen simulates a crash: the manager is abandoned (its pool's
// unflushed pages are lost) and the directory reopened from on-disk
// state only.
func crashReopen(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCrashRecoveryReplaysCommitted(t *testing.T) {
	m, dir := createDB(t, Options{})
	var rids []oid.RID
	for i := 0; i < 20; i++ {
		err := writeH(m, func(h *storage.Heap) error {
			rid, err := h.Insert([]byte(fmt.Sprintf("record-%d", i)))
			rids = append(rids, rid)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no checkpoint. Committed work lives only in WAL.
	m2 := crashReopen(t, dir)
	defer m2.Close()
	if m2.Stats().RecoveredTxns == 0 {
		t.Fatal("no transactions recovered")
	}
	for i, rid := range rids {
		var got []byte
		err := readH(m2, func(h2 *storage.Heap) error {
			var err error
			got, err = h2.Read(rid)
			return err
		})
		if err != nil || string(got) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("lost record %d: %q %v", i, got, err)
		}
	}
}

func TestAbortRestoresState(t *testing.T) {
	m, _ := createDB(t, Options{})
	defer m.Close()
	var keep oid.RID
	if err := writeH(m, func(h *storage.Heap) error {
		var err error
		keep, err = h.Insert([]byte("keep"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var lost oid.RID
	err := writeH(m, func(h *storage.Heap) error {
		var err error
		lost, err = h.Insert([]byte("lost"))
		if err != nil {
			return err
		}
		if err := h.Update(keep, []byte("mutated")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// Aborted insert gone, aborted update undone.
	if err := readH(m, func(h *storage.Heap) error {
		if _, err := h.Read(lost); !errors.Is(err, storage.ErrNoRecord) {
			// The RID's page may not even exist anymore.
			if err == nil {
				t.Fatal("aborted insert visible")
			}
		}
		got, err := h.Read(keep)
		if err != nil || string(got) != "keep" {
			t.Fatalf("aborted update persisted: %q %v", got, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Aborts != 1 {
		t.Fatalf("aborts = %d", m.Stats().Aborts)
	}
	// Engine still consistent: new writes work.
	if err := writeH(m, func(h *storage.Heap) error {
		_, err := h.Insert([]byte("after"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicRollsBackAndPropagates(t *testing.T) {
	m, _ := createDB(t, Options{})
	defer m.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		_ = writeH(m, func(h *storage.Heap) error {
			if _, err := h.Insert([]byte("doomed")); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	if m.Stats().Aborts != 1 {
		t.Fatalf("aborts = %d", m.Stats().Aborts)
	}
	// Manager usable after panic rollback.
	if err := writeH(m, func(h *storage.Heap) error {
		_, err := h.Insert([]byte("fine"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUncommittedLostOnCrash(t *testing.T) {
	m, dir := createDB(t, Options{})
	if err := writeH(m, func(h *storage.Heap) error {
		_, err := h.Insert([]byte("committed"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sizeAfterCommit := dataFileSize(t, dir)
	// An aborted transaction's work must never reach disk.
	_ = writeH(m, func(h *storage.Heap) error {
		for i := 0; i < 50; i++ {
			if _, err := h.Insert(bytes.Repeat([]byte("x"), 1000)); err != nil {
				return err
			}
		}
		return errors.New("abort")
	})
	m2 := crashReopen(t, dir)
	defer m2.Close()
	if got := dataFileSize(t, dir); got > sizeAfterCommit+int64(m2.Store().PageSize()) {
		t.Fatalf("aborted bulk write reached disk: %d vs %d", got, sizeAfterCommit)
	}
}

func dataFileSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, DataFileName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	m, dir := createDB(t, Options{})
	for i := 0; i < 10; i++ {
		if err := writeH(m, func(h *storage.Heap) error {
			_, err := h.Insert(bytes.Repeat([]byte("w"), 500))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().WALBytes <= 8 {
		t.Fatal("WAL empty before checkpoint")
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().WALBytes != 8 {
		t.Fatalf("WAL not truncated: %d", m.Stats().WALBytes)
	}
	// After checkpoint + crash, data must come from the page file.
	m2 := crashReopen(t, dir)
	defer m2.Close()
	if m2.Stats().RecoveredTxns != 0 {
		t.Fatalf("unexpected recovery work after checkpoint: %d", m2.Stats().RecoveredTxns)
	}
	n := 0
	if err := readH(m2, func(h2 *storage.Heap) error {
		return h2.Scan(func(oid.RID, []byte) (bool, error) { n++; return true, nil })
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("post-checkpoint crash lost records: %d", n)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	m, _ := createDB(t, Options{CheckpointBytes: 10_000})
	defer m.Close()
	for i := 0; i < 30; i++ {
		if err := writeH(m, func(h *storage.Heap) error {
			_, err := h.Insert(bytes.Repeat([]byte("c"), 800))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// With group commit the checkpoint runs on a background goroutine,
	// so give it a moment rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto checkpoint never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterCheckpointsPastTheSlack: a writer that finds its shard's
// log past CheckpointBytes by a quarter runs the due checkpoint itself,
// so four writers keep the log within the slack plus one commit each —
// also with the background checkpointer stopped. Below the slack a
// writer runs none, and Close during a writer's checkpoint returns while
// the writer gets ErrClosed.
func TestWriterCheckpointsPastTheSlack(t *testing.T) {
	const (
		limit   = 64 << 10
		slack   = limit + limit/4
		writers = 4
	)
	insert := func(m *Manager) error {
		return writeH(m, func(h *storage.Heap) error { _, err := h.Insert(bytes.Repeat([]byte("s"), 800)); return err })
	}
	for _, noSync := range []bool{true, false} {
		for _, background := range []bool{true, false} {
			t.Run(fmt.Sprintf("NoSync=%v/checkpointer=%v", noSync, background), func(t *testing.T) {
				m, _ := createDB(t, Options{NoSync: noSync, CheckpointBytes: limit})
				defer m.Close()
				// The most one commit logs: the largest growth of the log
				// across one write, over a few checkpoints' worth of them
				// (the first commits after a reset log whole pages).
				var perCommit int64
				for i := 0; i < 300; i++ {
					ckpts, before := m.Stats().Checkpoints, m.log.Size()
					if err := insert(m); err != nil {
						t.Fatal(err)
					}
					if after := m.log.Size(); m.Stats().Checkpoints == ckpts && after > before {
						perCommit = max(perCommit, after-before)
					}
				}
				if !background {
					close(m.ckptStop)
					m.ckptWG.Wait()
					m.ckptStop = make(chan struct{}) // for Close
				}
				base := m.Stats().Checkpoints
				var peak atomic.Int64
				done := make(chan struct{})
				sampled := make(chan struct{})
				go func() {
					defer close(sampled)
					for {
						if n := m.log.Size(); n > peak.Load() {
							peak.Store(n)
						}
						select {
						case <-done:
							return
						default:
							runtime.Gosched()
						}
					}
				}()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 100; i++ {
							if err := insert(m); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				close(done)
				<-sampled
				if bound := slack + writers*perCommit; peak.Load() > bound {
					t.Fatalf("log peaked at %d bytes, over %d (slack %d + %d writers x %d bytes a commit)", peak.Load(), bound, slack, writers, perCommit)
				}
				if m.Stats().Checkpoints == base {
					t.Fatal("400 commits of 800 bytes and no checkpoint ran")
				}
			})
		}
	}

	t.Run("Close", func(t *testing.T) {
		fsys := &failOneSync{FS: faultfs.NewMem(), name: DataFileName}
		m, err := Create("/db", Options{NoSync: true, CheckpointBytes: limit, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		// With the checkpointer stopped, only a writer checkpoints: fill
		// the log up to the slack, checkpoints due all the way from the
		// limit, and below the slack the writers run none.
		close(m.ckptStop)
		m.ckptWG.Wait()
		m.ckptStop = make(chan struct{}) // for Close
		for m.log.Size() < slack {
			if err := insert(m); err != nil {
				t.Fatal(err)
			}
		}
		if n := m.Stats().Checkpoints; n != 0 {
			t.Fatalf("%d checkpoints below the slack", n)
		}
		// Only a checkpoint syncs the data file: park the writer's there.
		parked, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		fsys.onSync = func() error { once.Do(func() { close(parked); <-release }); return nil }
		res := make(chan error, 1)
		go func() { res <- insert(m) }()
		select {
		case <-parked:
		case err := <-res:
			t.Fatalf("writer past the slack ran no checkpoint: %v", err)
		}
		closed := make(chan error, 1)
		go func() { closed <- m.Close() }()
		for !m.isClosed() {
			runtime.Gosched()
		}
		close(release)
		if err := <-closed; err != nil {
			t.Fatalf("Close during a writer's checkpoint: %v", err)
		}
		if err := <-res; !errors.Is(err, ErrClosed) {
			t.Fatalf("writer whose checkpoint Close waited out: %v, want ErrClosed", err)
		}
	})
}

func TestReadOnlyWriteTxnLogsNothing(t *testing.T) {
	m, _ := createDB(t, Options{})
	defer m.Close()
	before := m.Stats().WALBytes
	if err := m.Write(func(*storage.TxView) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().WALBytes; got != before {
		t.Fatalf("empty txn wrote WAL: %d -> %d", before, got)
	}
}

func TestClosedManagerRejectsWork(t *testing.T) {
	m, _ := createDB(t, Options{})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(func(*storage.TxView) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := m.Read(func(*storage.TxView) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestRandomizedCrashConsistency interleaves committed and aborted
// transactions with crash-reopens, checking that exactly the committed
// state survives.
func TestRandomizedCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	m, err := Create(dir, Options{Storage: storage.Options{PageSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(321))
	model := map[oid.RID][]byte{} // committed state

	reopen := func() {
		m2, err := Open(dir, Options{Storage: storage.Options{PageSize: 512}})
		if err != nil {
			t.Fatal(err)
		}
		m = m2
	}

	for round := 0; round < 30; round++ {
		nTxns := rng.Intn(5) + 1
		for i := 0; i < nTxns; i++ {
			abort := rng.Intn(3) == 0
			// cur tracks the would-be state if this txn commits; RIDs can
			// be reused within a txn (delete then insert), so effects must
			// be applied in order.
			cur := make(map[oid.RID][]byte, len(model))
			for k, v := range model {
				cur[k] = v
			}
			err := writeH(m, func(h *storage.Heap) error {
				ops := rng.Intn(6) + 1
				for j := 0; j < ops; j++ {
					if rng.Intn(4) == 0 && len(cur) > 0 {
						for rid := range cur {
							if err := h.Delete(rid); err != nil {
								return err
							}
							delete(cur, rid)
							break
						}
					} else {
						data := make([]byte, rng.Intn(900))
						rng.Read(data)
						rid, err := h.Insert(data)
						if err != nil {
							return err
						}
						cur[rid] = data
					}
				}
				if abort {
					return errors.New("abort")
				}
				return nil
			})
			if abort {
				if err == nil {
					t.Fatal("abort error swallowed")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			model = cur
		}
		switch rng.Intn(3) {
		case 0:
			// Crash without closing.
			reopen()
		case 1:
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			reopen()
		}
		// Validate the committed model.
		for rid, want := range model {
			var got []byte
			err := readH(m, func(h *storage.Heap) error {
				var err error
				got, err = h.Read(rid)
				return err
			})
			if err != nil {
				t.Fatalf("round %d: lost committed %v: %v", round, rid, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: corrupt committed %v", round, rid)
			}
		}
		// And that nothing extra survived.
		count := 0
		if err := readH(m, func(h *storage.Heap) error {
			return h.Scan(func(rid oid.RID, _ []byte) (bool, error) {
				if _, ok := model[rid]; !ok {
					t.Fatalf("round %d: phantom record %v", round, rid)
				}
				count++
				return true, nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		if count != len(model) {
			t.Fatalf("round %d: scan %d vs model %d", round, count, len(model))
		}
	}
	m.Close()
}
