package btree

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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

// countingBuilder wraps the table builder, counting the tables it
// builds.
func countingBuilder(builds *int) storage.OffsetBuilder {
	return func(body []byte, buf []uint16) ([]uint16, bool) {
		*builds++
		return offsets(body, buf)
	}
}

// TestEditsUpdateOffsetTable: one transaction inserts into a published
// leaf (its first touch copies the page), then replaces that entry with
// one of the same size, a longer and a shorter one, deletes it, and
// inserts and deletes at both ends of the leaf. Each edit derives the
// leaf's table alongside its bytes: after every step the page's current
// table is what its bytes build, and no table is built in between — a
// table the writer did not keep would be rebuilt by the next search.
func TestEditsUpdateOffsetTable(t *testing.T) {
	m, root, key := oneLeaf(t)
	err := m.Write(func(v *storage.TxView) error {
		tr := Open(v, root)
		builds := 0
		current := func(step string) error {
			pg, err := v.GetTyped(root, storage.PageBTree)
			if err != nil {
				return err
			}
			got, ok := v.Offsets(pg, countingBuilder(&builds))
			want, wok := offsets(pg.Body(), nil)
			if !ok || !wok || !slices.Equal(got, want) {
				return fmt.Errorf("%s: current table %v (%v), the bytes build %v (%v)", step, got, ok, want, wok)
			}
			if builds != 0 {
				return fmt.Errorf("%s: %d tables built since the last step", step, builds)
			}
			return tr.CheckOffsets()
		}
		// The published leaf's table, built once by a reader of it.
		if _, _, err := tr.Get(key(0)); err != nil {
			return err
		}
		if err := current("before the edits"); err != nil {
			return err
		}
		for _, step := range []struct {
			name string
			k    []byte
			v    string // "" deletes k
		}{
			{"insert", key(5), "ab"},
			{"same-size replace", key(5), "cd"},
			{"grow", key(5), "a longer value"},
			{"shrink", key(5), "e"},
			{"delete", key(5), ""},
			{"insert first", []byte("a"), "f"},
			{"insert last", key(999), "g"},
			{"delete first", []byte("a"), ""},
			{"delete last", key(999), ""},
			{"delete the old first", key(0), ""},
		} {
			if step.v == "" {
				if ok, err := tr.Delete(step.k); err != nil || !ok {
					return fmt.Errorf("%s: Delete = %v, %v", step.name, ok, err)
				}
			} else if err := tr.Put(step.k, []byte(step.v)); err != nil {
				return fmt.Errorf("%s: %w", step.name, err)
			}
			if tr.Root() != root {
				return fmt.Errorf("%s split the leaf", step.name)
			}
			if err := current(step.name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEditKeepsReadersTable: readers hold a published leaf's table
// while a writer's first touch copies the leaf and edits the copy — a
// Put in one transaction, a Delete in the next, each deriving the copy's
// table. The edited table must go into a buffer of the copy's own:
// every reader's slice stays as it was and still matches the bytes it
// reads. Run under -race as well.
func TestEditKeepsReadersTable(t *testing.T) {
	m, root, key := oneLeaf(t)
	type held struct {
		table, kept []uint16
		release     chan struct{}
		done        chan error
	}
	// hold parks a reader holding the leaf's table as of now; its done
	// reports whether, once released, that table is unchanged and still
	// what the reader's bytes build.
	hold := func() *held {
		h := &held{release: make(chan struct{}), done: make(chan error, 1)}
		ready := make(chan struct{})
		go func() {
			h.done <- m.Read(func(v *storage.TxView) error {
				defer func() { <-h.release }()
				pg, err := v.GetTyped(root, storage.PageBTree)
				if err != nil {
					close(ready)
					return err
				}
				h.table, _ = v.Offsets(pg, offsets)
				h.kept = slices.Clone(h.table)
				close(ready)
				<-h.release
				want, _ := offsets(pg.Body(), nil)
				if !slices.Equal(h.table, h.kept) || !slices.Equal(h.table, want) {
					return fmt.Errorf("the reader's table went from %v to %v; its bytes build %v", h.kept, h.table, want)
				}
				return Open(v, root).CheckOffsets()
			})
		}()
		<-ready
		return h
	}
	edit := func(fn func(*Tree) error) {
		if err := m.Write(func(v *storage.TxView) error { return fn(Open(v, root)) }); err != nil {
			t.Error(err)
		}
	}
	first := hold()
	edit(func(tr *Tree) error { return tr.Put(key(5), []byte("inserted")) })
	// The leaf the Put published carries the table the Put derived.
	second := hold()
	edit(func(tr *Tree) error {
		ok, err := tr.Delete(key(0))
		if err == nil && !ok {
			err = errors.New("Delete found nothing")
		}
		return err
	})
	for _, h := range []*held{first, second} {
		close(h.release)
		if err := <-h.done; err != nil {
			t.Error(err)
		}
	}
	if len(second.table) != len(first.table)+1 {
		t.Errorf("the second reader's table has %d offsets, the first's %d: want one entry more", len(second.table), len(first.table))
	}
}
