package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

// diffPair is the tree and the reference model, each over its own store.
type diffPair struct {
	t      *testing.T
	tr     *Tree
	ref    *refTree
	v, rv  *storage.TxView
	keys   []string // live keys, unordered
	live   map[string]int
	maxKey int
	maxVal int
}

func newDiffPair(t *testing.T, pageSize int) *diffPair {
	tr, v := testTree(t, pageSize)
	st, err := storage.Create(filepath.Join(t.TempDir(), "ref.ode"), storage.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rv := st.OpenWriter(nil)
	ref, err := refCreate(rv)
	if err != nil {
		t.Fatal(err)
	}
	return &diffPair{t: t, tr: tr, ref: ref, v: v, rv: rv, live: map[string]int{}, maxKey: tr.maxKey(), maxVal: tr.maxVal()}
}

// drawSize draws a length that is usually small and now and then
// reaches the limit, so nodes mix one-byte and two-byte length prefixes
// and splits fall at every fill.
func drawSize(rng *rand.Rand, small, limit int) int {
	switch rng.Intn(10) {
	case 0:
		return limit - rng.Intn(3)
	case 1:
		return rng.Intn(limit/3 + 1)
	default:
		return 1 + rng.Intn(small)
	}
}

func (d *diffPair) freshKey(rng *rand.Rand) []byte {
	for {
		k := make([]byte, drawSize(rng, 12, d.maxKey))
		rng.Read(k)
		if _, dup := d.live[string(k)]; !dup {
			return k
		}
	}
}

func (d *diffPair) liveKey(rng *rand.Rand) []byte {
	return []byte(d.keys[rng.Intn(len(d.keys))])
}

func (d *diffPair) put(k, v []byte) bool {
	err, rerr := d.tr.Put(k, v), d.ref.Put(k, v)
	if (err == nil) != (rerr == nil) {
		d.t.Fatalf("Put(%x, %d bytes): tree %v, reference %v", k, len(v), err, rerr)
	}
	if err != nil {
		// Count-based splits can leave a half too big for a page when
		// entry sizes are wildly uneven; both refuse, and the sequence
		// ends there.
		d.t.Logf("both refused Put(%d-byte key, %d-byte value): %v", len(k), len(v), err)
		return false
	}
	if _, ok := d.live[string(k)]; !ok {
		d.live[string(k)] = len(d.keys)
		d.keys = append(d.keys, string(k))
	}
	return true
}

func (d *diffPair) del(k []byte) {
	ok, err := d.tr.Delete(k)
	rok, rerr := d.ref.Delete(k)
	if err != nil || rerr != nil || ok != rok {
		d.t.Fatalf("Delete(%x): tree %v %v, reference %v %v", k, ok, err, rok, rerr)
	}
	if i, live := d.live[string(k)]; live {
		last := d.keys[len(d.keys)-1]
		d.keys[i], d.live[last] = last, i
		d.keys = d.keys[:len(d.keys)-1]
		delete(d.live, string(k))
	}
}

// probe asks both trees the same questions around k.
func (d *diffPair) probe(rng *rand.Rand, k []byte) {
	t := d.t
	v, ok, err := d.tr.Get(k)
	rv, rok, rerr := d.ref.Get(k)
	if err != nil || rerr != nil || ok != rok || !bytes.Equal(v, rv) {
		t.Fatalf("Get(%x): tree %x %v %v, reference %x %v %v", k, v, ok, err, rv, rok, rerr)
	}
	sk, sv, ok, err := d.tr.SeekLE(k)
	rk, rv, rok, rerr := d.ref.SeekLE(k)
	if err != nil || rerr != nil || ok != rok || !bytes.Equal(sk, rk) || !bytes.Equal(sv, rv) {
		t.Fatalf("SeekLE(%x): tree %x %v %v, reference %x %v %v", k, sk, ok, err, rk, rok, rerr)
	}
	mk, mv, ok, err := d.tr.Max()
	rk, rv, rok, rerr = d.ref.Max()
	if err != nil || rerr != nil || ok != rok || !bytes.Equal(mk, rk) || !bytes.Equal(mv, rv) {
		t.Fatalf("Max: tree %x %v %v, reference %x %v %v", mk, ok, err, rk, rok, rerr)
	}
	// A bounded scan from k to a random other key (or open-ended).
	var to []byte
	if rng.Intn(2) == 0 && len(d.keys) > 0 {
		to = d.liveKey(rng)
	}
	limit := 1 + rng.Intn(40)
	collect := func(asc func(from, to []byte, fn func(k, v []byte) (bool, error)) error) [][2]string {
		var out [][2]string
		if err := asc(k, to, func(k, v []byte) (bool, error) {
			out = append(out, [2]string{string(k), string(v)})
			return len(out) < limit, nil
		}); err != nil {
			t.Fatalf("Ascend(%x, %x): %v", k, to, err)
		}
		return out
	}
	if got, want := collect(d.tr.Ascend), collect(d.ref.Ascend); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ascend(%x, %x) diverges:\n tree      %x\n reference %x", k, to, got, want)
	}
}

// samePages demands what the format promise rests on: both stores hold
// the same number of pages and every page has the same bytes (checksums
// aside — they are stamped at flush).
func (d *diffPair) samePages(when string) {
	t := d.t
	if d.tr.Root() != d.ref.root {
		t.Fatalf("%s: root %d, reference %d", when, d.tr.Root(), d.ref.root)
	}
	if d.v.NumPages() != d.rv.NumPages() {
		t.Fatalf("%s: %d pages, reference %d", when, d.v.NumPages(), d.rv.NumPages())
	}
	for id := oid.PageID(0); uint64(id) < d.v.NumPages(); id++ {
		p, err := d.v.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := d.rv.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data[4:], rp.Data[4:]) {
			t.Fatalf("%s: page %d (%v) differs from the reference's (%v)", when, id, p.Type(), rp.Type())
		}
	}
	if err := d.tr.Check(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// offsetsCurrent demands that every table the tree has built describes
// its node's bytes as they are now.
func (d *diffPair) offsetsCurrent(when string) {
	if err := d.tr.CheckOffsets(); err != nil {
		d.t.Fatalf("%s: %v", when, err)
	}
}

func (d *diffPair) height() int {
	h := 1
	for id := d.ref.root; ; h++ {
		n, err := d.ref.readNode(id)
		if err != nil {
			d.t.Fatal(err)
		}
		if n.leaf {
			return h
		}
		id = n.children[0]
	}
}

// TestDifferentialAgainstReference drives the in-place tree and the
// decode/re-encode reference with the same seeded operations through
// growth to three levels and more, churn, a drain down to an empty root
// (prunes, root collapse) and regrowth: identical answers, and
// byte-identical stores. Every entry-offset table the tree has built
// must describe its node's bytes: checked after every step at 512-byte
// pages, and after every 32nd at 4096, where the check's walk over
// every entry of a five-times-larger tree would dominate the run.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, tc := range []struct{ pageSize, grow int }{{512, 6000}, {4096, 30000}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("page%d/seed%d", tc.pageSize, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d := newDiffPair(t, tc.pageSize)
				val := func() []byte {
					v := make([]byte, max(0, drawSize(rng, 24, d.maxVal)-rng.Intn(2)))
					rng.Read(v)
					return v
				}
				step := func(puts, overwrites, deletes int) bool {
					switch r := rng.Intn(puts + overwrites + deletes + 2); {
					case r < puts || len(d.keys) == 0:
						return d.put(d.freshKey(rng), val())
					case r < puts+overwrites:
						return d.put(d.liveKey(rng), val())
					case r < puts+overwrites+deletes:
						d.del(d.liveKey(rng))
					case r == puts+overwrites+deletes:
						d.del(d.freshKey(rng)) // absent
					default:
						d.probe(rng, d.liveKey(rng))
						d.probe(rng, d.freshKey(rng))
					}
					return true
				}
				phase := func(name string, steps, puts, overwrites, deletes int) bool {
					for i := 0; i < steps; i++ {
						if !step(puts, overwrites, deletes) {
							return false
						}
						if tc.pageSize == 512 || i%32 == 0 {
							d.offsetsCurrent(fmt.Sprintf("%s step %d", name, i))
						}
						if i%997 == 0 {
							d.samePages(fmt.Sprintf("%s step %d", name, i))
						}
					}
					d.samePages(name)
					return true
				}
				if !phase("grow", tc.grow, 8, 2, 1) {
					return
				}
				if h := d.height(); h < 3 {
					t.Fatalf("grew to height %d, want ≥ 3", h)
				}
				if !phase("churn", tc.grow/2, 3, 3, 3) {
					return
				}
				for len(d.keys) > 0 { // drain: prunes, then root collapse
					d.del(d.liveKey(rng))
					if tc.pageSize == 512 || len(d.keys)%32 == 0 {
						d.offsetsCurrent(fmt.Sprintf("drain at %d keys", len(d.keys)))
					}
					if len(d.keys)%499 == 0 {
						d.samePages(fmt.Sprintf("drain at %d keys", len(d.keys)))
					}
				}
				if h := d.height(); h != 1 {
					t.Fatalf("drained tree has height %d", h)
				}
				phase("regrow", tc.grow/4, 6, 2, 2)
			})
		}
	}
}

// TestOpensReferenceWrittenStore: a store whose every node was written
// by the reference encoder — what the commit before the in-place tree
// put on disk — opens under Tree after a close, checks clean, answers
// every key, and takes writes.
func TestOpensReferenceWrittenStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ref.ode")
	st, err := storage.Create(path, storage.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	v := st.OpenWriter(nil)
	ref, err := refCreate(v)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	model := map[string]string{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(3000))
		if rng.Intn(4) == 0 {
			if _, err := ref.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
			continue
		}
		val := fmt.Sprintf("v%d-%s", i, k[:rng.Intn(len(k))])
		if err := ref.Put([]byte(k), []byte(val)); err != nil {
			t.Fatal(err)
		}
		model[k] = val
	}
	v.SetRoot(0, ref.root)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = storage.Open(path, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v = st.OpenWriter(nil)
	tr := Open(v, v.Root(0))
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Len(); err != nil || n != len(model) {
		t.Fatalf("Len = %d %v, want %d", n, err, len(model))
	}
	for k, want := range model {
		if got, ok, err := tr.Get([]byte(k)); err != nil || !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q %v %v, want %q", k, got, ok, err, want)
		}
	}
	for k := range model {
		if rng.Intn(2) == 0 {
			if ok, err := tr.Delete([]byte(k)); err != nil || !ok {
				t.Fatalf("Delete(%s) = %v %v", k, ok, err)
			}
			delete(model, k)
		} else {
			model[k] += "+"
			if err := tr.Put([]byte(k), []byte(model[k])); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertMatchesModel(t, tr, model, -1)
}

// TestGetCopyOutlivesPut: inside a write transaction the live page is
// edited in place, so what Get, SeekLE and Max returned earlier must not
// move when a later Put shifts, overwrites or splits that leaf.
func TestGetCopyOutlivesPut(t *testing.T) {
	tr, _ := testTree(t, 512)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for i := 10; i < 20; i++ {
		if err := tr.Put(key(i), []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tr.Get(key(15))
	if err != nil {
		t.Fatal(err)
	}
	sk, sv, _, err := tr.SeekLE([]byte("k0155"))
	if err != nil {
		t.Fatal(err)
	}
	mk, mv, _, err := tr.Max()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(key(15), []byte("overwritten-with-a-longer-value")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // shifts every entry, then splits the leaf
		if err := tr.Put(key(i), []byte("zzzzzzzzzz")); err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "value-015" || string(sk) != "k015" || string(sv) != "value-015" ||
		string(mk) != "k019" || string(mv) != "value-019" {
		t.Fatalf("results moved under a later Put: Get %q, SeekLE %q=%q, Max %q=%q", got, sk, sv, mk, mv)
	}
}

// TestAscendSnapshotWhileWriterSplits: a reader's Ascend hands out
// slices of the page; a writer that meanwhile rewrites and splits that
// very leaf works on its own copy. Run under -race: a write to the
// reader's page would be a data race as well as a wrong answer.
func TestAscendSnapshotWhileWriterSplits(t *testing.T) {
	m, err := txn.Create(filepath.Join(t.TempDir(), "db"), txn.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	var root oid.PageID
	const before = 40 // one leaf of a 4 KiB page
	err = m.Write(func(v *storage.TxView) error {
		tr, err := Create(v)
		if err != nil {
			return err
		}
		for i := 0; i < before; i++ {
			if err := tr.Put(key(i*10), []byte("old")); err != nil {
				return err
			}
		}
		root = tr.Root()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	started, written := make(chan struct{}), make(chan error, 1)
	wg.Add(1)
	go func() { // the writer: overwrite every value, then split the leaf many times
		defer wg.Done()
		<-started
		written <- m.Write(func(v *storage.TxView) error {
			tr := Open(v, root)
			for i := 0; i < before*10; i++ {
				if err := tr.Put(key(i), []byte("new-and-longer")); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	seen := 0
	err = m.Read(func(v *storage.TxView) error {
		return Open(v, root).Ascend(nil, nil, func(k, val []byte) (bool, error) {
			if seen == 1 { // mid-leaf: let the writer run to its commit
				close(started)
				if err := <-written; err != nil {
					return false, err
				}
			}
			if want := key(seen * 10); !bytes.Equal(k, want) || string(val) != "old" {
				return false, fmt.Errorf("entry %d: %q=%q, want %q=old", seen, k, val, want)
			}
			seen++
			return true, nil
		})
	})
	wg.Wait()
	if err != nil || seen != before {
		t.Fatalf("snapshot scan saw %d of %d entries: %v", seen, before, err)
	}
}

// TestPruneReadsStayLogarithmic: pruning an emptied leaf finds the
// leaf before it along the descent path — a handful of page reads —
// where it once walked the whole chain from the leftmost leaf.
func TestPruneReadsStayLogarithmic(t *testing.T) {
	const keys = 120_000 // ~1,100 leaves under a 4 KiB page
	m, root := benchStore(t, keys)
	pool := m.Store().Pool()
	reads := func() uint64 {
		m := pool.Metrics()
		return m.PoolHits.Load() + m.PoolMisses.Load()
	}
	err := m.Write(func(v *storage.TxView) error {
		tr := Open(v, root)
		// The keys of each leaf, in chain order.
		var leafKeys [][][]byte
		prevLeaf := oid.NilPage
		err := tr.Ascend(nil, nil, func(k, _ []byte) (bool, error) {
			id, _, _, _, err := tr.leafFor(k)
			if err != nil {
				return false, err
			}
			if id != prevLeaf {
				prevLeaf = id
				leafKeys = append(leafKeys, nil)
			}
			leafKeys[len(leafKeys)-1] = append(leafKeys[len(leafKeys)-1], bytes.Clone(k))
			return true, nil
		})
		if err != nil {
			return err
		}
		if len(leafKeys) < 1000 {
			t.Fatalf("only %d leaves", len(leafKeys))
		}
		// Empty 200 leaves far from the chain's head, rightmost first: the
		// old walk would have crossed hundreds of leaves for each.
		worst, removed := uint64(0), 0
		for li := len(leafKeys) - 1; li > len(leafKeys)-600; li -= 3 {
			ks := leafKeys[li]
			for _, k := range ks[:len(ks)-1] {
				if _, err := tr.Delete(k); err != nil {
					return err
				}
			}
			before := reads()
			if ok, err := tr.Delete(ks[len(ks)-1]); err != nil || !ok {
				return fmt.Errorf("delete: %v %v", ok, err)
			}
			worst = max(worst, reads()-before)
			removed += len(ks)
		}
		// Height 3: the descent, the victim, the chain mend, the free and
		// the root check are about a dozen page reads; a chain walk would
		// be several hundred.
		t.Logf("worst prune: %d page reads", worst)
		if worst > 24 {
			t.Errorf("a prune read %d pages; want O(height)", worst)
		}
		if err := tr.Check(); err != nil {
			return err
		}
		if n, err := tr.Len(); err != nil || n != keys-removed {
			return fmt.Errorf("Len = %d %v", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
