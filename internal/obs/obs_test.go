package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Load(); got != -2 {
		t.Fatalf("gauge = %d, want -2", got)
	}
}

// TestStripedConcurrentExact: goroutines adding on their own stripes
// lose nothing — a Counter's Load is the exact total, and a Gauge every
// goroutine raised and lowered by the same amounts, on its own stripe or
// on one it recorded, is back at 0 (run under -race by make race).
func TestStripedConcurrentExact(t *testing.T) {
	var c Counter
	var g Gauge
	const gs, per = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < gs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < per; n++ {
				c.Inc()
				c.Add(2)
				g.Inc()
				g.Add(5)
			}
			for n := 0; n < per; n++ {
				g.Dec()
				g.Add(-5)
			}
			// A holder gives back on the stripe it recorded, wherever it
			// ends.
			s := Stripe()
			g.AddAt(s, 1)
			func() { g.AddAt(s, -1) }()
		}()
	}
	wg.Wait()
	if got, want := c.Load(), uint64(gs*per*3); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d at rest, want 0", got)
	}
	// The adds spread over the stripes rather than all landing on one.
	used := 0
	for i := range c.s {
		if c.s[i].n.Load() != 0 {
			used++
		}
	}
	t.Logf("%d goroutines used %d of %d stripes", gs, used, Stripes)
}

// TestCounterLoadMonotone: a reader's successive Loads of a Counter that
// writers are adding to never decrease, though each sums the stripes
// one at a time.
func TestCounterLoadMonotone(t *testing.T) {
	var c Counter
	var stop sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		stop.Add(1)
		go func() {
			defer stop.Done()
			for {
				select {
				case <-done:
					return
				default:
					c.Add(3)
				}
			}
		}()
	}
	// Read until the writers have been adding for a while, however late
	// they were scheduled.
	var last uint64
	for n := 0; n < 100000 || last < 1<<18; n++ {
		v := c.Load()
		if v < last {
			t.Fatalf("Load went from %d back to %d", last, v)
		}
		last = v
	}
	close(done)
	stop.Wait()
}

// TestStripeInRange: a stripe is a valid cell index, the same one for
// one goroutine calling from one site, and picking it allocates nothing.
func TestStripeInRange(t *testing.T) {
	first := Stripe()
	for i := 0; i < 100; i++ {
		if s := Stripe(); s < 0 || s >= Stripes || s != first {
			t.Fatalf("Stripe() = %d, first call %d", s, first)
		}
	}
	var c Counter
	if a := testing.AllocsPerRun(100, func() { c.Inc() }); a != 0 {
		t.Errorf("Counter.Inc allocates %.1f", a)
	}
}

// BenchmarkCounterInc is one striped add from every parallel goroutine:
// at -cpu 2 the two goroutines mostly add on different lines, so ns/op
// should stay near the -cpu 1 figure rather than pay a line transfer
// per add (make hotpath runs it at -cpu 1,2).
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Load() != uint64(b.N) {
		b.Fatalf("counter = %d after %d adds", c.Load(), b.N)
	}
}

// TestBucketBoundaries pins the bucket map at its edge cases: zero,
// exact power-of-two boundaries (the first value of each bucket), the
// value just below each boundary, and overflow into the last bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1<<10 - 1, 10},
		{1 << 10, 11},
		{1 << (NumBuckets - 2), NumBuckets - 1}, // first overflow value
		{math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's upper bound must itself land in that bucket, and
	// the next value in the next one.
	for i := 1; i < NumBuckets-1; i++ {
		u := BucketUpper(i)
		if got := bucketOf(u); got != i {
			t.Errorf("bucketOf(BucketUpper(%d)=%d) = %d", i, u, got)
		}
		if got := bucketOf(u + 1); got != i+1 {
			t.Errorf("bucketOf(BucketUpper(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d", BucketUpper(0))
	}
	if BucketUpper(NumBuckets-1) != math.MaxUint64 {
		t.Errorf("overflow bucket upper = %d", BucketUpper(NumBuckets-1))
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 5, 1024, math.MaxUint64} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Max != math.MaxUint64 {
		t.Fatalf("max = %d", s.Max)
	}
	wantSum := uint64(0 + 1 + 1 + 5 + 1024)
	wantSum += math.MaxUint64 // wraps, deliberately: sum is modular
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 2 || s.Counts[3] != 1 || s.Counts[11] != 1 || s.Counts[NumBuckets-1] != 1 {
		t.Fatalf("bucket layout wrong: %v", s.Counts)
	}
}

func TestObserveDurationClampsNegative(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-time.Second)
	h.ObserveDuration(3 * time.Nanosecond)
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[2] != 1 {
		t.Fatalf("buckets = %v", s.Counts[:4])
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	h.Observe(100)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 100 {
			// Single sample: every quantile clamps to Max == the sample.
			t.Fatalf("Quantile(%v) = %d, want 100", q, got)
		}
	}
	if s.Mean() != 100 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

// refQuantile is the straightforward reference: the sample of rank
// ceil(q*n) in sorted order.
func refQuantile(sorted []uint64, q float64) uint64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// bucketWidth is the width of the bucket containing v.
func bucketWidth(v uint64) uint64 {
	b := bucketOf(v)
	if b <= 0 {
		return 1
	}
	if b >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1 << uint(b-1) // bucket b spans [2^(b-1), 2^b)
}

// TestQuantilePropertyVsReference: across random seeds and
// distributions, the histogram's quantile estimate stays within one
// bucket width of the exact sample quantile, and never undershoots it.
func TestQuantilePropertyVsReference(t *testing.T) {
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 1.0}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(5000)
		samples := make([]uint64, n)
		var h Histogram
		for i := range samples {
			var v uint64
			switch seed % 3 {
			case 0: // uniform over a wide range
				v = uint64(rng.Int63n(1 << 40))
			case 1: // exponential-ish latencies around 1ms
				v = uint64(rng.ExpFloat64() * 1e6)
			default: // heavy repetition incl. zeros
				v = uint64(rng.Intn(16)) * uint64(rng.Intn(1024))
			}
			samples[i] = v
			h.Observe(v)
		}
		sorted := append([]uint64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s := h.Snapshot()
		for _, q := range quantiles {
			ref := refQuantile(sorted, q)
			got := s.Quantile(q)
			if got < ref {
				t.Fatalf("seed %d q=%v: estimate %d undershoots reference %d", seed, q, got, ref)
			}
			if got-ref >= bucketWidth(ref) {
				t.Fatalf("seed %d q=%v: estimate %d more than one bucket width above reference %d (width %d)",
					seed, q, got, ref, bucketWidth(ref))
			}
		}
	}
}

// TestMergeEqualsSequential: merging the snapshots of concurrent
// recorders must equal recording every sample into one histogram.
func TestMergeEqualsSequential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const parts = 8
		all := make([][]uint64, parts)
		for i := range all {
			vals := make([]uint64, 200+rng.Intn(200))
			for j := range vals {
				vals[j] = uint64(rng.Int63n(1 << 30))
			}
			all[i] = vals
		}

		// Concurrent: one histogram per goroutine, then merge.
		hs := make([]Histogram, parts)
		var wg sync.WaitGroup
		for i := range hs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, v := range all[i] {
					hs[i].Observe(v)
				}
			}(i)
		}
		wg.Wait()
		var merged HistSnapshot
		for i := range hs {
			merged.Merge(hs[i].Snapshot())
		}

		// Sequential: everything into one.
		var seq Histogram
		for _, vals := range all {
			for _, v := range vals {
				seq.Observe(v)
			}
		}
		want := seq.Snapshot()
		if merged != want {
			t.Fatalf("seed %d: merged snapshot differs from sequential", seed)
		}
	}
}

// TestConcurrentObserveSameHistogram: many goroutines into ONE
// histogram must lose nothing (the lock-free claim, run under -race).
func TestConcurrentObserveSameHistogram(t *testing.T) {
	var h Histogram
	const gs, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(uint64(rng.Int63n(1 << 20)))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != gs*per {
		t.Fatalf("count = %d, want %d", s.Count, gs*per)
	}
}

func TestPercentileShorthands(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.P50() < 50 || s.P95() < 95 || s.P99() < 99 {
		t.Fatalf("p50/p95/p99 = %d/%d/%d undershoot", s.P50(), s.P95(), s.P99())
	}
	if s.P99() > s.Max || s.Max != 100 {
		t.Fatalf("p99 %d > max %d", s.P99(), s.Max)
	}
}

func TestNewAndMean(t *testing.T) {
	m := New()
	m.PoolHits.Inc()
	if got := m.PoolHits.Load(); got != 1 {
		t.Fatalf("fresh registry counter: got %d", got)
	}
	var h Histogram
	if got := h.Snapshot().Mean(); got != 0 {
		t.Fatalf("empty mean: got %v", got)
	}
	h.Observe(2)
	h.Observe(4)
	if got := h.Snapshot().Mean(); got != 3 {
		t.Fatalf("mean: got %v, want 3", got)
	}
}

// TestRegistryDeclaresEveryCell: a cell's field tags are its whole
// declaration, so every field of Metrics carries all three, well-formed,
// and Read knows its type.
func TestRegistryDeclaresEveryCell(t *testing.T) {
	if len(Registry) != reflect.TypeOf(Metrics{}).NumField() {
		t.Fatalf("Registry lists %d cells of %d", len(Registry), reflect.TypeOf(Metrics{}).NumField())
	}
	m := New()
	names := map[string]bool{}
	for _, s := range Registry {
		if !strings.HasPrefix(s.Name, "ode_") || names[s.Name] {
			t.Errorf("%s: series %q is not a unique ode_ name", s.Field, s.Name)
		}
		names[s.Name] = true
		if s.Help == "" {
			t.Errorf("%s: no help text", s.Field)
		}
		if !s.PerShard && !s.PerDB {
			t.Errorf(`%s: scope is "shard", "db" or "shard,db"`, s.Field)
		}
		switch v := s.Read(m).(type) {
		case uint64, int64, HistSnapshot:
		default:
			t.Errorf("%s reads as a %T", s.Field, v)
		}
	}
	m.PoolHits.Add(3)
	m.ActiveReaders.Dec()
	m.BatchSize.Observe(7)
	for _, s := range Registry {
		switch v := s.Read(m).(type) {
		case uint64:
			if want := map[string]uint64{"PoolHits": 3}[s.Field]; v != want {
				t.Errorf("%s reads %d, want %d", s.Field, v, want)
			}
		case int64:
			if want := map[string]int64{"ActiveReaders": -1}[s.Field]; v != want {
				t.Errorf("%s reads %d, want %d", s.Field, v, want)
			}
		case HistSnapshot:
			if want := map[string]uint64{"BatchSize": 7}[s.Field]; v.Sum != want {
				t.Errorf("%s sums to %d, want %d", s.Field, v.Sum, want)
			}
		}
	}
}
