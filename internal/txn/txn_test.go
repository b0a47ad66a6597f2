package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// TestWriterWaitsOutPendingCheckpoint: a writer that finds its shard's
// log past CheckpointBytes by a quarter with a checkpoint pending waits
// for that checkpoint before it takes the writer mutex — below that it
// does not — and Close releases a writer still waiting.
func TestWriterWaitsOutPendingCheckpoint(t *testing.T) {
	const limit = 64 << 10
	m, _ := createDB(t, Options{NoSync: true, CheckpointBytes: limit})
	defer m.Close()
	// stall stands in for a kicked checkpointer that has not yet got the
	// writer mutex, over a log of walBytes.
	stall := func(walBytes int64) chan struct{} {
		done := make(chan struct{})
		m.ckptMu.Lock()
		m.ckptDone = done
		m.ckptMu.Unlock()
		m.walBytes.Store(walBytes)
		return done
	}
	write := func() chan error {
		res := make(chan error, 1)
		go func() {
			res <- writeH(m, func(h *storage.Heap) error { _, err := h.Insert([]byte("w")); return err })
		}()
		return res
	}

	const slack = limit + limit/4
	stall(slack - 1)
	if err := <-write(); err != nil {
		t.Fatalf("below the slack: %v", err)
	}

	done := stall(slack)
	res := write()
	select {
	case err := <-res:
		t.Fatalf("writer ran past a pending checkpoint with the log past the slack: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ckptMu.Lock()
	m.ckptDone = nil
	m.ckptMu.Unlock()
	close(done)
	if err := <-res; err != nil {
		t.Fatalf("after the checkpoint: %v", err)
	}

	stall(slack)
	res = write()
	time.Sleep(20 * time.Millisecond) // let it reach the wait
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-res; !errors.Is(err, ErrClosed) {
		t.Fatalf("writer waiting at Close: %v, want ErrClosed", err)
	}
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
