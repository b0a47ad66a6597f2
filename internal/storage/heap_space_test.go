package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"ode/internal/oid"
)

// checkSpaceIndex verifies that the class lists and the per-page map of
// a HeapState describe the same set of pages.
func checkSpaceIndex(t *testing.T, hs *HeapState) {
	t.Helper()
	listed := 0
	for c, list := range hs.classes {
		for at, id := range list {
			e, ok := hs.space[id]
			if !ok || e.at != at || e.free/spaceClass != c {
				t.Fatalf("class %d[%d] = page %d, but its entry is %+v (present %v)", c, at, id, e, ok)
			}
		}
		listed += len(list)
	}
	if listed != len(hs.space) {
		t.Fatalf("%d pages listed, %d in the map", listed, len(hs.space))
	}
}

func TestHeapStateClassIndex(t *testing.T) {
	hs := NewHeapState()
	rng := rand.New(rand.NewSource(1))
	model := map[oid.PageID]int{}
	for i := 0; i < 20000; i++ {
		id := oid.PageID(1 + rng.Intn(300))
		if rng.Intn(4) == 0 {
			hs.drop(id)
			delete(model, id)
		} else {
			free := rng.Intn(4080)
			hs.set(id, free)
			model[id] = free
		}
		if i%500 == 0 {
			checkSpaceIndex(t, hs)
		}
	}
	checkSpaceIndex(t, hs)
	if len(hs.space) != len(model) {
		t.Fatalf("%d pages cached, want %d", len(hs.space), len(model))
	}
	for id, free := range model {
		if hs.space[id].free != free {
			t.Fatalf("page %d: free %d, want %d", id, hs.space[id].free, free)
		}
	}
}

// TestHeapFirstFitByClass: a hunt for space takes a cached page that
// fits — including one in the class of the need itself — passes over
// one in that class that falls short, and heals entries that lie.
func TestHeapFirstFitByClass(t *testing.T) {
	_, v, _ := tempWriter(t, Options{PageSize: 4096})
	hs := NewHeapState()
	h := NewHeap(v, hs)
	// Three pages, each left with a different remainder.
	fill := func(n int) oid.PageID {
		p, err := v.Allocate(PageSlotted)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SlottedInsert(p, bytes.Repeat([]byte{1}, n)); err != nil {
			t.Fatal(err)
		}
		hs.set(p.ID, SlottedFreeSpace(p))
		return p.ID
	}
	tight, roomy := fill(3000), fill(2900)
	freeTight, freeRoomy := hs.space[tight].free, hs.space[roomy].free
	if freeTight/spaceClass != (freeTight+60)/spaceClass {
		t.Skipf("layout moved: %d and %d are not in one class", freeTight, freeTight+60)
	}
	// A need in tight's class but above its free bytes must land on roomy.
	rid, err := h.Insert(bytes.Repeat([]byte{2}, freeTight+40))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != roomy {
		t.Fatalf("insert of %d bytes went to page %d; tight=%d (free %d) roomy=%d (free %d)",
			freeTight+40, rid.Page, tight, freeTight, roomy, freeRoomy)
	}
	// A need that tight can hold uses it rather than a new page.
	pages := v.NumPages()
	if rid, err = h.Insert(bytes.Repeat([]byte{3}, freeTight-40)); err != nil {
		t.Fatal(err)
	}
	if rid.Page != tight || v.NumPages() != pages {
		t.Fatalf("insert that fits page %d went to page %d (pages %d → %d)", tight, rid.Page, pages, v.NumPages())
	}
	// Lies heal: an entry claiming room a page does not have is corrected,
	// one naming a page that is not a heap page is dropped.
	hs.set(tight, 2000)
	bt, err := v.Allocate(PageBTree)
	if err != nil {
		t.Fatal(err)
	}
	hs.set(bt.ID, 2000)
	if rid, err = h.Insert(bytes.Repeat([]byte{4}, 1500)); err != nil {
		t.Fatal(err)
	}
	if rid.Page == tight || rid.Page == bt.ID {
		t.Fatalf("insert trusted a stale entry: page %d", rid.Page)
	}
	if _, ok := hs.space[bt.ID]; ok || hs.space[tight].free >= 1500 {
		t.Fatalf("stale entries survived: btree page cached %v, tight free %d", ok, hs.space[tight].free)
	}
	checkSpaceIndex(t, hs)
}
