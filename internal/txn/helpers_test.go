package txn

import (
	"testing"

	"ode/internal/storage"
	"ode/internal/wal"
)

// logRun appends the records build stages to log as one AppendFrames
// splice — how tests hand-craft WAL contents now that Frames is the
// only record encoder.
func logRun(t testing.TB, log *wal.Log, build func(fr *wal.Frames)) {
	t.Helper()
	var fr wal.Frames
	build(&fr)
	if _, err := log.AppendFrames(&fr); err != nil {
		t.Fatal(err)
	}
}

// insertOn returns a transaction body that inserts payload into the heap
// of every listed shard, joining them in the order given.
func insertOn(payload string, on ...int) func(*WriteTx) error {
	return func(w *WriteTx) error {
		for _, s := range on {
			v, err := w.Join(s)
			if err != nil {
				return err
			}
			if _, err := storage.NewHeap(v, nil).Insert([]byte(payload)); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeH runs fn in a write transaction with a heap bound to the
// transaction's view. Heap free-space state is fresh per call; tests
// exercise correctness, not the engine's cross-transaction space cache.
func writeH(m *Manager, fn func(h *storage.Heap) error) error {
	return m.Write(func(v *storage.TxView) error {
		return fn(storage.NewHeap(v, nil))
	})
}

// readH runs fn in a read transaction with a heap over its snapshot.
func readH(m *Manager, fn func(h *storage.Heap) error) error {
	return m.Read(func(v *storage.TxView) error {
		return fn(storage.NewHeap(v, nil))
	})
}
