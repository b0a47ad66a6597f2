package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"ode/internal/oid"
	"ode/internal/storage"
)

func testTree(t testing.TB, pageSize int) (*Tree, *storage.TxView) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bt.ode")
	st, err := storage.Create(path, storage.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	v := st.OpenWriter(pageSet{})
	tr, err := Create(v)
	if err != nil {
		t.Fatal(err)
	}
	return tr, v
}

// pageSet is the least storage.MutationTracker: it remembers the pages
// the view has copied or allocated, so that — as under the transaction
// manager — a second Touch edits the writer's own copy in place.
type pageSet map[oid.PageID]bool

func (s pageSet) BeforeMutate(id oid.PageID, _ []byte, _ bool) { s[id] = true }
func (s pageSet) DidAllocate(id oid.PageID)                    { s[id] = true }
func (s pageSet) Tracked(id oid.PageID) bool                   { return s[id] }

func TestPutGetBasic(t *testing.T) {
	tr, _ := testTree(t, 512)
	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	// Replace.
	if err := tr.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = tr.Get([]byte("k1"))
	if !ok || string(v) != "v2" {
		t.Fatalf("replace: %q", v)
	}
	// Missing.
	_, ok, err = tr.Get([]byte("nope"))
	if err != nil || ok {
		t.Fatal("phantom key")
	}
}

func TestSizeLimits(t *testing.T) {
	tr, _ := testTree(t, 512)
	if err := tr.Put(make([]byte, 1000), []byte("v")); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("want ErrKeyTooLarge, got %v", err)
	}
	if err := tr.Put([]byte("k"), make([]byte, 1000)); !errors.Is(err, ErrValTooLarge) {
		t.Fatalf("want ErrValTooLarge, got %v", err)
	}
}

func TestSplitsAndOrderedScan(t *testing.T) {
	tr, _ := testTree(t, 512) // small pages force deep trees
	const n = 2000
	perm := rand.New(rand.NewSource(11)).Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key%06d", i))
		v := []byte(fmt.Sprintf("val%d", i))
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	count := 0
	var prev []byte
	err := tr.Ascend(nil, nil, func(k, v []byte) (bool, error) {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan saw %d of %d", count, n)
	}
	// Point lookups after deep splits.
	for i := 0; i < n; i += 97 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, ok, err := tr.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("lookup %q: %q %v %v", k, v, ok, err)
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr, _ := testTree(t, 512)
	for i := 0; i < 100; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%03d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Ascend([]byte("020"), []byte("025"), func(k, _ []byte) (bool, error) {
		got = append(got, string(k))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"020", "021", "022", "023", "024"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	_ = tr.Ascend(nil, nil, func(_, _ []byte) (bool, error) {
		n++
		return n < 3, nil
	})
	if n != 3 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestAscendPrefix(t *testing.T) {
	tr, _ := testTree(t, 512)
	keys := []string{"a:1", "a:2", "ab:1", "b:1", "b:2", "c:9"}
	for _, k := range keys {
		if err := tr.Put([]byte(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := tr.AscendPrefix([]byte("a:"), func(k, _ []byte) (bool, error) {
		got = append(got, string(k))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a:1" || got[1] != "a:2" {
		t.Fatalf("prefix scan got %v", got)
	}
	// All-0xFF prefix edge case.
	if err := tr.Put([]byte{0xFF, 0xFF}, []byte("last")); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := tr.AscendPrefix([]byte{0xFF}, func(k, _ []byte) (bool, error) {
		found = true
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("0xFF prefix scan missed key")
	}
}

func TestDelete(t *testing.T) {
	tr, _ := testTree(t, 512)
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a missing key.
	ok, err := tr.Delete([]byte("zzzz"))
	if err != nil || ok {
		t.Fatalf("phantom delete: %v %v", ok, err)
	}
	// Delete everything.
	for i := 0; i < 500; i++ {
		ok, err := tr.Delete([]byte(fmt.Sprintf("%05d", i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	n, err := tr.Len()
	if err != nil || n != 0 {
		t.Fatalf("len after drain: %d %v", n, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Tree still usable.
	if err := tr.Put([]byte("again"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr.Get([]byte("again"))
	if !ok || string(v) != "yes" {
		t.Fatal("tree unusable after drain")
	}
}

func TestDrainReleasesPages(t *testing.T) {
	tr, st := testTree(t, 512)
	for i := 0; i < 1000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%06d", i)), bytes.Repeat([]byte("v"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	grown := st.NumPages()
	for i := 0; i < 1000; i++ {
		if _, err := tr.Delete([]byte(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Refill: freed pages must be recycled, so the file must not grow
	// much beyond its previous footprint.
	for i := 0; i < 1000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%06d", i)), bytes.Repeat([]byte("v"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	if st.NumPages() > grown+grown/4 {
		t.Fatalf("pages leaked: %d after refill vs %d", st.NumPages(), grown)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.ode")
	st, err := storage.Create(path, storage.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	v := st.OpenWriter(nil)
	tr, err := Create(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("p%04d", i)), []byte(fmt.Sprintf("%d", i*i))); err != nil {
			t.Fatal(err)
		}
	}
	v.SetRoot(0, tr.Root())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.Open(path, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	v2 := st2.OpenWriter(nil)
	tr2 := Open(v2, v2.Root(0))
	for i := 0; i < 300; i += 7 {
		v, ok, err := tr2.Get([]byte(fmt.Sprintf("p%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("%d", i*i) {
			t.Fatalf("reopen lookup %d: %q %v %v", i, v, ok, err)
		}
	}
	if err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestModelCheck drives the tree against a sorted map model.
func TestModelCheck(t *testing.T) {
	tr, _ := testTree(t, 512)
	rng := rand.New(rand.NewSource(77))
	model := map[string]string{}
	keyspace := func() string { return fmt.Sprintf("k%04d", rng.Intn(800)) }
	for step := 0; step < 8000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // put
			k, v := keyspace(), fmt.Sprintf("v%d", step)
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			model[k] = v
		case 5, 6, 7: // get
			k := keyspace()
			v, ok, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatalf("step %d get: %v", step, err)
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("step %d get %q: got (%q,%v) want (%q,%v)", step, k, v, ok, want, wantOK)
			}
		default: // delete
			k := keyspace()
			ok, err := tr.Delete([]byte(k))
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			_, wantOK := model[k]
			if ok != wantOK {
				t.Fatalf("step %d delete %q: got %v want %v", step, k, ok, wantOK)
			}
			delete(model, k)
		}
	}
	// Final: full scan equals sorted model.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	err := tr.Ascend(nil, nil, func(k, v []byte) (bool, error) {
		gotKeys = append(gotKeys, string(k))
		if model[string(k)] != string(v) {
			t.Fatalf("scan value mismatch at %q", k)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan %d keys, model %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key %d: got %q want %q", i, gotKeys[i], wantKeys[i])
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeKeysAndValuesWithinLimits(t *testing.T) {
	tr, _ := testTree(t, 4096)
	// Keys near the limit still allow multiple entries per node.
	for i := 0; i < 50; i++ {
		k := bytes.Repeat([]byte{byte('a' + i%26)}, 200)
		k = append(k, byte(i))
		if err := tr.Put(k, bytes.Repeat([]byte("V"), 400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Len()
	if n != 50 {
		t.Fatalf("len = %d", n)
	}
}

func TestSeekLEAndMax(t *testing.T) {
	tr, _ := testTree(t, 512)
	// Empty tree.
	if _, _, ok, err := tr.SeekLE([]byte("x")); err != nil || ok {
		t.Fatalf("empty SeekLE: %v %v", ok, err)
	}
	if _, _, ok, err := tr.Max(); err != nil || ok {
		t.Fatalf("empty Max: %v %v", ok, err)
	}
	for i := 0; i < 500; i += 2 { // even keys only
		if err := tr.Put([]byte(fmt.Sprintf("%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Exact hit.
	k, v, ok, err := tr.SeekLE([]byte("00100"))
	if err != nil || !ok || string(k) != "00100" || string(v) != "v100" {
		t.Fatalf("exact SeekLE: %q %q %v %v", k, v, ok, err)
	}
	// Between keys: odd target finds preceding even.
	k, _, ok, err = tr.SeekLE([]byte("00101"))
	if err != nil || !ok || string(k) != "00100" {
		t.Fatalf("between SeekLE: %q %v %v", k, ok, err)
	}
	// Below the minimum.
	if _, _, ok, _ := tr.SeekLE([]byte("!")); ok {
		t.Fatal("SeekLE below min returned a key")
	}
	// Above the maximum clamps to max.
	k, _, ok, _ = tr.SeekLE([]byte("zzzzz"))
	if !ok || string(k) != "00498" {
		t.Fatalf("SeekLE above max: %q %v", k, ok)
	}
	k, _, ok, err = tr.Max()
	if err != nil || !ok || string(k) != "00498" {
		t.Fatalf("Max: %q %v %v", k, ok, err)
	}
}

func TestSeekLEModel(t *testing.T) {
	tr, _ := testTree(t, 512)
	rng := rand.New(rand.NewSource(13))
	var keys []string
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%06d", rng.Intn(100000))
		if err := tr.Put([]byte(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for probe := 0; probe < 500; probe++ {
		q := fmt.Sprintf("%06d", rng.Intn(100000))
		// Model answer: largest key <= q.
		idx := sort.SearchStrings(keys, q)
		var want string
		haveWant := false
		if idx < len(keys) && keys[idx] == q {
			want, haveWant = q, true
		} else if idx > 0 {
			want, haveWant = keys[idx-1], true
		}
		k, _, ok, err := tr.SeekLE([]byte(q))
		if err != nil {
			t.Fatal(err)
		}
		if ok != haveWant || (ok && string(k) != want) {
			t.Fatalf("SeekLE(%q): got (%q,%v) want (%q,%v)", q, k, ok, want, haveWant)
		}
	}
}
