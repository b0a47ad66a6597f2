package btree

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

// The microbenchmarks and allocation gates share the shape of the
// repository benchmark's btree.* probes: a 100k-key tree of 16-byte keys
// and 8-byte values in a checkpointed store under a real transaction
// manager, a fresh handle per operation as a one-operation transaction
// opens it.

const benchKeys = 100_000

func benchKey(i int) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, uint64(i)*2) // even, so SeekLE has gaps to land in
	return k
}

// benchStore builds the tree and returns its manager and root.
func benchStore(tb testing.TB, keys int) (*txn.Manager, oid.PageID) {
	tb.Helper()
	m, err := txn.Create(filepath.Join(tb.TempDir(), "db"), txn.Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	var root oid.PageID
	val := make([]byte, 8)
	err = m.Write(func(v *storage.TxView) error {
		t, err := Create(v)
		if err != nil {
			return err
		}
		for _, i := range rand.New(rand.NewSource(4)).Perm(keys) {
			if err := t.Put(benchKey(i), val); err != nil {
				return err
			}
		}
		root = t.Root()
		return nil
	})
	if err == nil {
		err = m.Checkpoint()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return m, root
}

func benchRead(b *testing.B, op func(t *Tree, k []byte) error) {
	m, root := benchStore(b, benchKeys)
	keys := make([][]byte, benchKeys)
	for i := range keys {
		keys[i] = benchKey(i * 7919 % benchKeys)
	}
	b.ReportAllocs()
	err := m.Read(func(v *storage.TxView) error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(Open(v, root), keys[i%benchKeys]); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	benchRead(b, func(t *Tree, k []byte) error {
		_, _, err := t.Get(k)
		return err
	})
}

func BenchmarkTreeSeekLE(b *testing.B) {
	benchRead(b, func(t *Tree, k []byte) error {
		var odd [16]byte // between two stored keys
		copy(odd[:], k)
		odd[15]++
		_, _, _, err := t.SeekLE(odd[:])
		return err
	})
}

func BenchmarkTreeAscend(b *testing.B) {
	m, root := benchStore(b, benchKeys)
	b.ReportAllocs()
	err := m.Read(func(v *storage.TxView) error {
		b.ResetTimer()
		for i := 0; i < b.N; i += benchKeys {
			err := Open(v, root).Ascend(nil, nil, func(_, _ []byte) (bool, error) { return true, nil })
			if err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTreePut(b *testing.B) {
	m, root := benchStore(b, benchKeys)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = benchKey(benchKeys + i)
	}
	val := make([]byte, 8)
	b.ReportAllocs()
	err := m.Write(func(v *storage.TxView) error {
		b.ResetTimer()
		for _, k := range keys {
			t := Open(v, root)
			if err := t.Put(k, val); err != nil {
				return err
			}
			root = t.Root()
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestTreeGetAllocs pins a lookup through a fresh handle to the one
// allocation it owes its caller: the copy of the value.
func TestTreeGetAllocs(t *testing.T) {
	const keys = 20_000
	m, root := benchStore(t, keys)
	k := benchKey(keys / 3)
	var tree Tree
	err := m.Read(func(v *storage.TxView) error {
		allocs := testing.AllocsPerRun(200, func() {
			tree = *Open(v, root) // the handle itself is the caller's to place
			if _, ok, err := tree.Get(k); err != nil || !ok {
				t.Fatalf("get: %v %v", ok, err)
			}
		})
		if allocs > 1 {
			t.Errorf("Get: %.1f allocs/op, want ≤ 1", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTreePutAllocs pins the write path: an insert that fits edits the
// page where it lies and allocates nothing. Measured 0 allocs/op over
// ascending inserts: AllocsPerRun reports whole allocations, and the one
// insert in ~78 that splits (a scratch node, a page) rounds away. The
// decode/re-encode tree measured 28.
func TestTreePutAllocs(t *testing.T) {
	const keys, maxPutAllocs = 20_000, 0
	m, root := benchStore(t, keys)
	val := make([]byte, 8)
	fresh := make([][]byte, 0, 1100)
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, benchKey(keys+i))
	}
	var tree Tree
	err := m.Write(func(v *storage.TxView) error {
		next := 0
		put := func() {
			tree = *Open(v, root)
			if err := tree.Put(fresh[next], val); err != nil {
				t.Fatal(err)
			}
			root = tree.Root()
			next++
		}
		for i := 0; i < 64; i++ { // first touches of the right-hand spine
			put()
		}
		allocs := testing.AllocsPerRun(1000, put)
		t.Logf("Put: %.2f allocs/op (ceiling %v)", allocs, maxPutAllocs)
		if allocs > maxPutAllocs {
			t.Errorf("Put: %.2f allocs/op, want ≤ %v", allocs, maxPutAllocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
