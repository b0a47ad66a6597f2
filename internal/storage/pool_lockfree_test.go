package storage

// The pool's lock-free read path and its off-lock misses: readers pinned
// at different epochs resolve pages without the pool mutex while a writer
// copies, commits, flushes and the CLOCK sweep evicts under them; a page
// that several goroutines miss at once is read from the file once; a
// failed read reaches every goroutine waiting for it and leaves nothing
// behind; a hit allocates nothing.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/oid"
)

const stampPageSize = 512

// stampedPool creates a pool of the given capacity over a file of pages
// pages, each stamped with epoch 0, all flushed and clean.
func stampedPool(t testing.TB, fsys faultfs.FS, pages, capacity int) *Pool {
	t.Helper()
	f, err := OpenFile(fsys, "/stamp.db", stampPageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pl := NewPool(f, capacity)
	for id := 0; id < pages; id++ {
		stamp(pl.Install(oid.PageID(id), make([]byte, stampPageSize)), 0)
	}
	if err := pl.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return pl
}

// stamp writes the epoch that wrote p at both ends of its body.
func stamp(p *Page, epoch uint64) {
	binary.BigEndian.PutUint64(p.Data[HeaderSize:], epoch)
	binary.BigEndian.PutUint64(p.Data[len(p.Data)-8:], epoch)
}

// stamps reads the two stamps stamp wrote.
func stamps(p *Page) (head, tail uint64) {
	return binary.BigEndian.Uint64(p.Data[HeaderSize:]), binary.BigEndian.Uint64(p.Data[len(p.Data)-8:])
}

// TestPoolReadersUnderEviction: readers pinned at a spread of epochs call
// GetAt on a 12-page pool over 40 pages while the writer copies pages,
// stamps each copy with the epoch its commit publishes, advances the
// epochs and flushes, so that misses and evictions never stop. Every page
// a reader gets must carry exactly the stamp of the last write at or
// below its epoch; under -race, a reader handed a copy the writer is
// still stamping is also a reported race.
func TestPoolReadersUnderEviction(t *testing.T) {
	const pages, capacity, readers, rounds = 40, 12, 3, 400
	pl := stampedPool(t, faultfs.NewMem(), pages, capacity)

	// written[id] lists the epochs that wrote page id, ascending. The
	// writer appends before it makes the epoch durable.
	var mu sync.Mutex
	written := make([][]uint64, pages)
	for id := range written {
		written[id] = []uint64{0}
	}
	want := func(id oid.PageID, epoch uint64) uint64 {
		mu.Lock()
		defer mu.Unlock()
		w := uint64(0)
		for _, e := range written[id] {
			if e <= epoch {
				w = e
			}
		}
		return w
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 1))
			// Each reader keeps a pin for a while before taking the next,
			// so several epochs are pinned at once.
			for !stop.Load() {
				e := pl.PinEpoch()
				for k := 0; k < 32; k++ {
					id := oid.PageID(rng.IntN(pages))
					p, err := pl.GetAt(id, e)
					if err != nil {
						errs <- fmt.Errorf("reader %d: page %d at epoch %d: %w", r, id, e, err)
						pl.UnpinEpoch(e)
						return
					}
					head, tail := stamps(p)
					if w := want(id, e); head != w || tail != w {
						errs <- fmt.Errorf("reader %d: page %d at epoch %d carries stamps %d/%d, want %d", r, id, e, head, tail, w)
						pl.UnpinEpoch(e)
						return
					}
				}
				pl.UnpinEpoch(e)
			}
		}(r)
	}

	rng := rand.New(rand.NewPCG(99, 1))
	for round := 0; round < rounds && len(errs) == 0; round++ {
		next := pl.Epoch() + 1
		ids := rng.Perm(pages)[:3]
		for _, i := range ids {
			p, err := pl.Get(oid.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			np, _, _ := pl.COW(p)
			stamp(np, next)
		}
		mu.Lock()
		for _, i := range ids {
			written[i] = append(written[i], next)
		}
		mu.Unlock()
		pl.AdvanceDurableTo(pl.AdvanceEpoch())
		if round%2 == 1 {
			if err := pl.FlushDirty(); err != nil {
				t.Fatal(err)
			}
		}
		if round%16 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, _, ev := poolCounts(pl); ev == 0 {
		t.Fatal("no evictions: the test put the pool under no pressure")
	}
	if n := pl.SnapshotCount(); n != 0 {
		t.Fatalf("%d snapshots retained with no reader pinned", n)
	}
}

// gateFS holds the next ReadAt on a file it opened, once armed, until
// the test releases it.
type gateFS struct {
	faultfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateFS(inner faultfs.FS) *gateFS {
	return &gateFS{FS: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f gateFile) ReadAt(b []byte, off int64) (int, error) {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.ReadAt(b, off)
}

// waitForWaiters polls until n goroutines wait in a miss for another's
// read.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*Pool).fault") {
				got++
			}
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines wait for the read, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// concurrentMisses has n goroutines Get page id, which the gate holds in
// its read until the other n-1 wait for it, and returns what each got.
func concurrentMisses(t *testing.T, pl *Pool, gate *gateFS, id oid.PageID, n int) ([]*Page, []error) {
	t.Helper()
	pages, errs := make([]*Page, n), make([]error, n)
	gate.armed.Store(true)
	var wg sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		pages[i], errs[i] = pl.Get(id)
	}
	wg.Add(n)
	go get(0)
	<-gate.entered
	for i := 1; i < n; i++ {
		go get(i)
	}
	waitForWaiters(t, n-1)
	close(gate.release)
	wg.Wait()
	return pages, errs
}

// TestPoolConcurrentMissReadsOnce: goroutines missing the same page at
// once read it from the file once, all get the one page it installed,
// and the waiters count as hits.
func TestPoolConcurrentMissReadsOnce(t *testing.T) {
	const n = 6
	mem := faultfs.NewMem()
	stampedPool(t, mem, 4, 8)
	inj := faultfs.NewInjector(mem, faultfs.Plan{})
	gate := newGateFS(inj)
	f, err := OpenFile(gate, "/stamp.db", stampPageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pl := NewPool(f, 8)

	reads0 := inj.Counts().Reads
	pages, errs := concurrentMisses(t, pl, gate, 2, n)
	if got := inj.Counts().Reads - reads0; got != 1 {
		t.Fatalf("%d goroutines missing one page read it %d times, want once", n, got)
	}
	for i := range pages {
		if errs[i] != nil || pages[i] != pages[0] {
			t.Fatalf("goroutine %d got %p, %v; goroutine 0 got %p", i, pages[i], errs[i], pages[0])
		}
	}
	if h, m, _ := poolCounts(pl); h != n-1 || m != 1 {
		t.Fatalf("%d hits and %d misses, want %d and 1", h, m, n-1)
	}
	if total, _ := pl.Resident(); total != 1 {
		t.Fatalf("%d pages resident, want 1", total)
	}
}

// TestPoolFailedMissWakesEveryWaiter: when the one read of a page that
// several goroutines miss fails, every one of them gets the error, no
// page and no placeholder stay behind, and the next Get reads the page
// again.
func TestPoolFailedMissWakesEveryWaiter(t *testing.T) {
	const n = 5
	mem := faultfs.NewMem()
	stampedPool(t, mem, 4, 8)
	inj := faultfs.NewInjector(mem, faultfs.Plan{FailReadN: 2})
	gate := newGateFS(inj)
	f, err := OpenFile(gate, "/stamp.db", stampPageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pl := NewPool(f, 8)
	if _, err := pl.Get(1); err != nil {
		t.Fatal(err)
	}
	res0, _ := pl.Resident()
	h0, m0, _ := poolCounts(pl)

	_, errs := concurrentMisses(t, pl, gate, 3, n)
	for i, err := range errs {
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("goroutine %d: %v, want ErrInjected", i, err)
		}
	}
	if res, _ := pl.Resident(); res != res0 {
		t.Fatalf("%d pages resident after the failed read, want %d", res, res0)
	}
	if h, m, _ := poolCounts(pl); h != h0 || m != m0+1 {
		t.Fatalf("hits %d→%d, misses %d→%d: want one miss and no hit", h0, h, m0, m)
	}
	if s := pl.slot(3); s.reading || s.page.Load() != nil {
		t.Fatalf("the failed read left reading=%v, page %p", s.reading, s.page.Load())
	}

	reads := inj.Counts().Reads
	p, err := pl.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Counts().Reads - reads; got != 1 {
		t.Fatalf("the Get after the failure read the file %d times, want once", got)
	}
	if head, tail := stamps(p); head != 0 || tail != 0 {
		t.Fatalf("page 3 read back with stamps %d/%d", head, tail)
	}
}

// TestPoolMissYieldsToAStore: a page stored while a miss reads it from
// the file wins over the image read, which may be older than one a
// checkpoint wrote meanwhile; the miss returns the stored page.
func TestPoolMissYieldsToAStore(t *testing.T) {
	mem := faultfs.NewMem()
	stampedPool(t, mem, 4, 8)
	gate := newGateFS(mem)
	f, err := OpenFile(gate, "/stamp.db", stampPageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pl := NewPool(f, 8)
	gate.armed.Store(true)
	got := make(chan *Page)
	go func() {
		p, err := pl.Get(2)
		if err != nil {
			t.Error(err)
		}
		got <- p
	}()
	<-gate.entered
	stored := pl.Install(2, make([]byte, stampPageSize))
	stamp(stored, 7)
	close(gate.release)
	if p := <-got; p != stored {
		t.Fatalf("the miss returned %p, want the page stored during its read %p", p, stored)
	}
	if total, dirty := pl.Resident(); total != 1 || dirty != 1 {
		t.Fatalf("%d pages resident, %d dirty; want the stored page alone", total, dirty)
	}
}

// TestPoolHitAllocs: a Get hit and a GetAt hit, live page or snapshot,
// allocate nothing.
func TestPoolHitAllocs(t *testing.T) {
	pl := stampedPool(t, faultfs.NewMem(), 4, 8)
	e := pl.PinEpoch()
	defer pl.UnpinEpoch(e)
	p, err := pl.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	pl.COW(p) // page 2 now has a snapshot for e; page 1 does not
	for _, c := range []struct {
		name string
		get  func() (*Page, error)
	}{
		{"Get", func() (*Page, error) { return pl.Get(1) }},
		{"GetAt live", func() (*Page, error) { return pl.GetAt(1, e) }},
		{"GetAt snapshot", func() (*Page, error) { return pl.GetAt(2, e) }},
	} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := c.get(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s hit: %.1f allocs, want 0", c.name, allocs)
		}
	}
}

// BenchmarkPoolGetHit: readers resolving resident pages at a pinned
// epoch, as many goroutines as -cpu says. A hit takes no lock; what the
// goroutines still share is the registry's hit counter.
func BenchmarkPoolGetHit(b *testing.B) {
	const pages = 64
	pl := stampedPool(b, faultfs.NewMem(), pages, 2*pages)
	for id := oid.PageID(0); id < pages; id++ {
		if _, err := pl.Get(id); err != nil {
			b.Fatal(err)
		}
	}
	e := pl.PinEpoch()
	defer pl.UnpinEpoch(e)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for id := oid.PageID(0); pb.Next(); id = (id + 1) % pages {
			if _, err := pl.GetAt(id, e); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
