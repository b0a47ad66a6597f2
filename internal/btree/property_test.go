package btree

// Property-based test: the tree is driven by long random interleavings
// of insert / replace / delete / lookup across many seeds, and after
// EVERY mutation the full invariant set is re-asserted against a map
// model — Check() (key ordering, balance, leaf chain), Len, exact
// Ascend contents in sorted order, SeekLE and Max agreement. Small
// pages force deep trees so splits, merges and leaf-chain unlinking
// all fire constantly.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// propKey biases keys into a small space so deletes and replaces hit
// existing keys often enough to exercise structural shrinking.
func propKey(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("key-%04d", rng.Intn(400)))
}

func propVal(rng *rand.Rand) []byte {
	v := make([]byte, 1+rng.Intn(24))
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}

// assertMatchesModel checks every queryable invariant of tr against the
// reference model.
func assertMatchesModel(t *testing.T, tr *Tree, model map[string]string, step int) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if err := tr.Check(); err != nil {
		fail("structural invariant broken: %v", err)
	}
	if err := tr.CheckOffsets(); err != nil {
		fail("offset table: %v", err)
	}
	n, err := tr.Len()
	if err != nil {
		fail("Len: %v", err)
	}
	if n != len(model) {
		fail("Len %d, model has %d", n, len(model))
	}

	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Full iteration must yield exactly the model, in order.
	i := 0
	if err := tr.Ascend(nil, nil, func(k, v []byte) (bool, error) {
		if i >= len(keys) {
			fail("Ascend yielded extra key %q", k)
		}
		if string(k) != keys[i] || string(v) != model[keys[i]] {
			fail("Ascend[%d] = %q=%q, want %q=%q", i, k, v, keys[i], model[keys[i]])
		}
		i++
		return true, nil
	}); err != nil {
		fail("Ascend: %v", err)
	}
	if i != len(keys) {
		fail("Ascend stopped at %d of %d", i, len(keys))
	}

	// Max agrees with the model's last key.
	k, v, ok, err := tr.Max()
	if err != nil {
		fail("Max: %v", err)
	}
	if len(keys) == 0 {
		if ok {
			fail("Max found %q in empty tree", k)
		}
	} else {
		last := keys[len(keys)-1]
		if !ok || string(k) != last || string(v) != model[last] {
			fail("Max = %q=%q ok=%v, want %q=%q", k, v, ok, last, model[last])
		}
	}
}

// assertPointQueries spot-checks Get and SeekLE against the model (run
// on a sample of steps; it is O(keyspace) rather than O(tree)).
func assertPointQueries(t *testing.T, tr *Tree, model map[string]string, rng *rand.Rand, step int) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for probe := 0; probe < 8; probe++ {
		k := propKey(rng)
		want, inModel := model[string(k)]
		got, ok, err := tr.Get(k)
		if err != nil {
			t.Fatalf("step %d: Get(%q): %v", step, k, err)
		}
		if ok != inModel || (ok && string(got) != want) {
			t.Fatalf("step %d: Get(%q) = %q,%v; model %q,%v", step, k, got, ok, want, inModel)
		}
		// SeekLE must return the greatest model key <= k.
		var wantLE string
		haveLE := false
		for _, mk := range keys {
			if mk <= string(k) {
				wantLE, haveLE = mk, true
			}
		}
		lk, lv, lok, err := tr.SeekLE(k)
		if err != nil {
			t.Fatalf("step %d: SeekLE(%q): %v", step, k, err)
		}
		if lok != haveLE || (lok && (string(lk) != wantLE || string(lv) != model[wantLE])) {
			t.Fatalf("step %d: SeekLE(%q) = %q=%q,%v; want %q,%v",
				step, k, lk, lv, lok, wantLE, haveLE)
		}
	}
}

func TestPropertyRandomOps(t *testing.T) {
	seeds := 12
	steps := 300
	if testing.Short() {
		seeds, steps = 4, 120
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			// Alternate page sizes across seeds: 512 forces deep trees and
			// constant splits; 4096 exercises wide nodes.
			pageSize := 512
			if seed%3 == 2 {
				pageSize = 4096
			}
			tr, _ := testTree(t, pageSize)
			model := map[string]string{}
			for step := 0; step < steps; step++ {
				op := rng.Intn(10)
				switch {
				case op < 5: // insert or replace
					k, v := propKey(rng), propVal(rng)
					if err := tr.Put(k, v); err != nil {
						t.Fatalf("step %d: Put(%q): %v", step, k, err)
					}
					model[string(k)] = string(v)
				case op < 8: // delete (often missing)
					k := propKey(rng)
					_, inModel := model[string(k)]
					found, err := tr.Delete(k)
					if err != nil {
						t.Fatalf("step %d: Delete(%q): %v", step, k, err)
					}
					if found != inModel {
						t.Fatalf("step %d: Delete(%q) = %v, model %v", step, k, found, inModel)
					}
					delete(model, string(k))
				default: // pure lookups this step
					assertPointQueries(t, tr, model, rng, step)
				}
				assertMatchesModel(t, tr, model, step)
			}
			// Drain the tree completely: the empty-tree path and the last
			// leaf-chain unlinks must hold up too.
			for k := range model {
				found, err := tr.Delete([]byte(k))
				if err != nil || !found {
					t.Fatalf("drain Delete(%q): %v %v", k, found, err)
				}
				delete(model, k)
			}
			assertMatchesModel(t, tr, model, steps)
		})
	}
}

// TestPropertyOrderedVsReverse loads the same key set in ascending,
// descending and shuffled order; all three must converge to identical
// iteration contents (regression net for order-dependent split bugs).
func TestPropertyOrderedVsReverse(t *testing.T) {
	const n = 500
	contents := func(load func(i int) int) []string {
		tr, _ := testTree(t, 512)
		for i := 0; i < n; i++ {
			j := load(i)
			k := []byte(fmt.Sprintf("key-%05d", j))
			if err := tr.Put(k, []byte(fmt.Sprintf("val-%d", j))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		var out []string
		if err := tr.Ascend(nil, nil, func(k, v []byte) (bool, error) {
			out = append(out, string(k)+"="+string(v))
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	asc := contents(func(i int) int { return i })
	desc := contents(func(i int) int { return n - 1 - i })
	perm := rand.New(rand.NewSource(99)).Perm(n)
	shuf := contents(func(i int) int { return perm[i] })

	if !equalStrings(asc, desc) || !equalStrings(asc, shuf) {
		t.Fatal("insertion order changed the tree's contents")
	}
	if len(asc) != n {
		t.Fatalf("lost keys: %d of %d", len(asc), n)
	}
	if !sort.StringsAreSorted(asc) {
		t.Fatal("iteration out of order")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
