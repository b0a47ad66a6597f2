package btree

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

// oneLeaf commits a tree of keys k0000, k0010, … k0390 — one leaf at
// 4 KiB pages — with value "0" each, and returns its manager and root.
func oneLeaf(t *testing.T) (*txn.Manager, oid.PageID, func(i int) []byte) {
	t.Helper()
	m, err := txn.Create(filepath.Join(t.TempDir(), "db"), txn.Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	var root oid.PageID
	err = m.Write(func(v *storage.TxView) error {
		tr, err := Create(v)
		if err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			if err := tr.Put(key(i*10), []byte("0")); err != nil {
				return err
			}
		}
		root = tr.Root()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, root, key
}

// pointQueries asks tr for every model key and for a key just past
// each: Get must find the one and miss the other, SeekLE land on the
// key from either.
func pointQueries(tr *Tree, model map[string]string) error {
	for k, want := range model {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			return fmt.Errorf("Get(%s) = %q %v %v, want %q", k, v, ok, err, want)
		}
		if _, ok, err := tr.Get([]byte(k + "5")); err != nil || ok {
			return fmt.Errorf("Get(%s5) = %v %v, want absent", k, ok, err)
		}
		sk, sv, ok, err := tr.SeekLE([]byte(k + "5"))
		if err != nil || !ok || string(sk) != k || string(sv) != want {
			return fmt.Errorf("SeekLE(%s5) = %s=%q %v %v, want %s=%q", k, sk, sv, ok, err, k, want)
		}
	}
	return nil
}

// TestRollbackRetiresOffsetTable: a transaction searches a leaf, puts
// into it, searches its edited copy again — building a table over the
// edited bytes — and rolls back. The rollback restores the page's bytes
// under that table, so it must mark the table stale: the next
// transaction's Get, SeekLE and Ascend must answer from the restored
// bytes.
func TestRollbackRetiresOffsetTable(t *testing.T) {
	m, root, key := oneLeaf(t)
	model := map[string]string{}
	for i := 0; i < 40; i++ {
		model[string(key(i*10))] = "0"
	}
	errAbort := errors.New("abort")
	for round := 0; round < 3; round++ {
		err := m.Write(func(v *storage.TxView) error {
			tr := Open(v, root)
			if _, ok, err := tr.Get(key(5)); err != nil || ok {
				return fmt.Errorf("Get before the puts: %v %v", ok, err)
			}
			for _, i := range []int{5, 15, 395} {
				if err := tr.Put(key(i), []byte("rolled back")); err != nil {
					return err
				}
				if v, ok, err := tr.Get(key(i)); err != nil || !ok || string(v) != "rolled back" {
					return fmt.Errorf("Get after Put(%d): %q %v %v", i, v, ok, err)
				}
			}
			if tr.Root() != root {
				return errors.New("the puts split the leaf")
			}
			return errAbort
		})
		if !errors.Is(err, errAbort) {
			t.Fatalf("round %d: %v", round, err)
		}
		// The writer sees the restored live page itself.
		check := func(v *storage.TxView) error {
			tr := Open(v, root)
			assertMatchesModel(t, tr, model, round)
			return pointQueries(tr, model)
		}
		if err := m.Write(check); err != nil {
			t.Fatalf("round %d, next writer: %v", round, err)
		}
		if err := m.Read(check); err != nil {
			t.Fatalf("round %d, reader: %v", round, err)
		}
		// A commit that edits the leaf, so the next round starts from a
		// page with a history.
		k := key(round*10 + 10)
		model[string(k)] = strconv.Itoa(round + 1)
		if err := m.Write(func(v *storage.TxView) error { return Open(v, root).Put(k, []byte(model[string(k)])) }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadersRaceToIndexPublishedLeaf: readers search a leaf that each
// commit republishes without a table, racing one another to build and
// share it, while the writer copies the page, edits it — shifting every
// entry after the one it rewrites — and commits. Run under -race: a
// table built or rebuilt in place where a reader can see it is a data
// race as well as a wrong answer.
func TestReadersRaceToIndexPublishedLeaf(t *testing.T) {
	m, root, key := oneLeaf(t)
	const rounds, readers = 300, 3
	var done atomic.Bool
	var wg, ready sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	ready.Add(readers)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		ready.Wait()
		for r := 1; r <= rounds; r++ {
			err := m.Write(func(v *storage.TxView) error {
				tr := Open(v, root)
				i := r % 40 * 10
				if _, ok, err := tr.Get(key(i)); err != nil || !ok {
					return fmt.Errorf("writer Get(%d): %v %v", i, ok, err)
				}
				// A value one byte longer or shorter than the last.
				return tr.Put(key(i), bytes.Repeat([]byte{'0' + byte(r%10)}, 1+r%3))
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; !done.Load() || n < 10; n++ {
				err := m.Read(func(v *storage.TxView) error {
					tr := Open(v, root)
					for j := g; j < 40; j += readers {
						k := key(j * 10)
						if v, ok, err := tr.Get(k); err != nil || !ok || len(v) == 0 || len(v) > 3 {
							return fmt.Errorf("Get(%s) = %q %v %v", k, v, ok, err)
						}
						sk, _, ok, err := tr.SeekLE(append(k, '5'))
						if err != nil || !ok || !bytes.Equal(sk, k) {
							return fmt.Errorf("SeekLE(%s5) = %s %v %v", k, sk, ok, err)
						}
					}
					return tr.CheckOffsets()
				})
				if n == 0 {
					ready.Done()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
