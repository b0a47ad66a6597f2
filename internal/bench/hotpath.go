package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ode"
)

// HotpathJSONPath, when non-empty, is where E18 writes its
// machine-readable results. cmd/odebench points it at
// BENCH_hotpath.json in the invocation directory; tests leave it empty.
var HotpathJSONPath = ""

// e18PreRefactorCommitAllocs is the measured allocs/op of the grouped
// commit path (one Update doing one UpdateLatestRaw of a 256-byte
// payload, Shards: 1, checkpoints off) BEFORE the zero-copy staging
// refactor: codec buffers copied into WAL frames copied into the splice
// batch, per-id superblock bumps, per-entry btree decode copies. The
// refactor's acceptance bar is ≥40% below this number; the constant
// records the provenance the comparison runs against, since the old
// path no longer exists to re-measure.
const e18PreRefactorCommitAllocs = 92.0

// e18PreRefactorDerefAllocs is the same recorded baseline for the hot
// latest-read path (one View doing one ReadLatestRaw of the same
// object) before the btree arena decode and the dereference cache.
const e18PreRefactorDerefAllocs = 29.0

// HotpathAllocResult is E18's allocation measurement for one path.
type HotpathAllocResult struct {
	Path          string  `json:"path"` // "commit" or "hot-deref"
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BaselineAlloc float64 `json:"pre_refactor_allocs_per_op"`
	ReductionPct  float64 `json:"reduction_pct"`
	Ops           int     `json:"ops"`
}

// HotpathReadResult is one hot-read measurement cell.
type HotpathReadResult struct {
	Shards      int     `json:"shards"`
	Mode        string  `json:"mode"` // "cache" or "nocache"
	Readers     int     `json:"readers"`
	ReadsPerSec float64 `json:"reads_per_sec"`
	Reads       int64   `json:"reads"`
	MeanUS      float64 `json:"mean_us"`
	P50US       float64 `json:"p50_us"`
	P99US       float64 `json:"p99_us"`
	HitRate     float64 `json:"cache_hit_rate"`
	Millis      int64   `json:"window_ms"`
	Reps        int     `json:"reps"`
}

// HotpathComparison pairs the modes at one shard count.
type HotpathComparison struct {
	Shards     int     `json:"shards"`
	P50Speedup float64 `json:"p50_speedup"` // nocache p50 / cache p50
}

// allocsPerOp measures the process-wide mallocs per call of fn on a
// single goroutine, the same way testing.AllocsPerRun does (one warm-up
// call, then ReadMemStats around n calls).
func allocsPerOp(n int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// e18AllocCell measures the two hot paths' allocs/op on the reference
// single-shard configuration.
func e18AllocCell(dir string, ops int) (commit, deref float64, err error) {
	db, ty, err := openBench(dir, &ode.Options{Shards: 1, CheckpointBytes: -1})
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	payload := Payload(rand.New(rand.NewSource(18)), 256, 0.5)
	var o ode.OID
	if err := db.Update(func(tx *ode.Tx) error {
		p, err := ty.Create(tx, &Blob{Data: payload})
		o = p.OID()
		return err
	}); err != nil {
		return 0, 0, err
	}
	commit, err = allocsPerOp(ops, func() error {
		return db.Update(func(tx *ode.Tx) error {
			_, err := tx.UpdateLatestRaw(o, payload)
			return err
		})
	})
	if err != nil {
		return 0, 0, err
	}
	deref, err = allocsPerOp(ops, func() error {
		return db.View(func(tx *ode.Tx) error {
			_, _, err := tx.ReadLatestRaw(o)
			return err
		})
	})
	return commit, deref, err
}

// e18ReadBatch is how many hot reads one View transaction performs: a
// snapshot pin (one epoch pin per shard) is paid once per transaction,
// so batching reads the way real read workloads do keeps the measured
// per-read latency about dereferencing rather than about pinning.
const e18ReadBatch = 8

// e18ReadWindow runs nReaders goroutines looping validated hot-read
// transactions (e18ReadBatch reads per View) over a fixed object set
// for one window, recording each transaction's per-read latency.
// Returns total reads, per-read latency samples (ns) and the deref
// cache hit rate over the window.
func e18ReadWindow(db *ode.DB, objs []ode.OID, nReaders int, window time.Duration) (int64, []float64, float64, error) {
	before := db.Stats()
	var (
		reads    atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		samples  []float64
		errOnce  sync.Once
		firstErr error
	)
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			local := make([]float64, 0, 4096)
			i := r
			for !stop.Load() {
				start := i
				t0 := time.Now()
				err := db.View(func(tx *ode.Tx) error {
					for k := 0; k < e18ReadBatch; k++ {
						o := objs[(start+k)%len(objs)]
						content, _, err := tx.ReadLatestRaw(o)
						if err != nil {
							return err
						}
						if len(content) == 0 {
							return fmt.Errorf("empty read of %v", o)
						}
					}
					return nil
				})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
				i += e18ReadBatch
				local = append(local, float64(time.Since(t0).Nanoseconds())/e18ReadBatch)
				reads.Add(e18ReadBatch)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(r)
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return 0, nil, 0, firstErr
	}
	after := db.Stats()
	hits := after.DerefCacheHits - before.DerefCacheHits
	misses := after.DerefCacheMisses - before.DerefCacheMisses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return reads.Load(), samples, rate, nil
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// median of a non-empty slice (sorts a copy).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e18OpenReadDB opens one store with n shards, seeds the hot object set
// (one create per transaction so the round-robin allocator spreads them
// across shards) and pre-warms nothing: each window's first touches
// fill cache and pool alike, and windows are long relative to the fill.
func e18OpenReadDB(dir string, shards, nObjs int, cache bool) (*ode.DB, []ode.OID, error) {
	opts := &ode.Options{Shards: shards, CheckpointBytes: -1, DerefCacheBytes: -1}
	if cache {
		opts.DerefCacheBytes = 0 // default budget
	}
	db, ty, err := openBench(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(1800 + int64(shards)))
	objs := make([]ode.OID, nObjs)
	for i := range objs {
		if err := db.Update(func(tx *ode.Tx) error {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, 256, 0.5)})
			objs[i] = p.OID()
			return err
		}); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	return db, objs, nil
}

// E18 — hot-path refactor: allocations on the grouped commit path and
// latency of hot latest-version reads with the dereference cache.
//
// Part one re-measures the two hot paths' allocs/op and compares them
// to the recorded pre-refactor baselines (92 commit / 29 deref) — the
// zero-copy staging contract is ≥40% fewer commit-path allocations.
//
// Part two measures hot-read latency at 1/4/8 shards with the
// dereference cache on vs off. Cells are ABBA-paired: each rep
// runs four windows (nocache, cache, cache, nocache) against two
// long-lived stores, so slot bias (warm CPU, page cache) cancels within
// the rep; the reported speedup is the median of per-rep p50 ratios.
// The acceptance bar is ≥2x lower p50 with the cache on.
func E18(root string, s Scale) (*Table, error) {
	window := time.Duration(400/s.Factor) * time.Millisecond
	if window < 100*time.Millisecond {
		window = 100 * time.Millisecond
	}
	reps := 3
	shardCounts := []int{1, 4, 8}
	if s.Smoke {
		reps = 1
		shardCounts = []int{1, 4}
	}
	allocOps := s.n(400)
	// One reader: the reference host is single-core, where concurrent
	// readers measure the scheduler, not the read path.
	const readers = 1
	const hotObjects = 64

	t := &Table{
		Title: "E18 — Hot paths: zero-copy commit staging and the dereference cache",
		Note: fmt.Sprintf("Part 1: allocs/op of one grouped commit (Update + 256-byte UpdateLatestRaw, Shards: 1) and one hot latest read, vs the recorded pre-refactor baselines (%.0f / %.0f); the staging contract is ≥40%% fewer commit allocs. Part 2: %d reader(s) loop validated hot-read transactions (%d ReadLatestRaw per View, amortising the per-shard snapshot pin the way read workloads do) over %d hot objects for %v per window; ABBA reps (nocache, cache, cache, nocache — slot bias cancels within the rep, %d reps) per shard count; latencies are per read; speedup is the median per-rep nocache/cache p50 ratio, bar ≥2x.",
			e18PreRefactorCommitAllocs, e18PreRefactorDerefAllocs, readers, e18ReadBatch, hotObjects, window, reps),
		Headers: []string{"cell", "shards", "mode", "reads/s", "mean (µs)", "p50/p99 (µs)", "hit rate", "speedup"},
	}

	// --- part 1: allocations ---
	commitAllocs, derefAllocs, err := e18AllocCell(filepath.Join(root, "e18-alloc"), allocOps)
	if err != nil {
		return nil, err
	}
	allocResults := []HotpathAllocResult{
		{Path: "commit", AllocsPerOp: commitAllocs, BaselineAlloc: e18PreRefactorCommitAllocs,
			ReductionPct: 100 * (1 - commitAllocs/e18PreRefactorCommitAllocs), Ops: allocOps},
		{Path: "hot-deref", AllocsPerOp: derefAllocs, BaselineAlloc: e18PreRefactorDerefAllocs,
			ReductionPct: 100 * (1 - derefAllocs/e18PreRefactorDerefAllocs), Ops: allocOps},
	}
	for _, a := range allocResults {
		t.AddRow("allocs", "1", a.Path,
			fmt.Sprintf("%.1f allocs/op", a.AllocsPerOp), "",
			fmt.Sprintf("was %.0f", a.BaselineAlloc), "",
			fmt.Sprintf("-%.0f%%", a.ReductionPct))
	}

	// --- part 2: hot-read latency, ABBA over cache on/off ---
	var readResults []HotpathReadResult
	var comparisons []HotpathComparison
	for _, shards := range shardCounts {
		dbOff, objsOff, err := e18OpenReadDB(filepath.Join(root, fmt.Sprintf("e18-r%d-off", shards)), shards, hotObjects, false)
		if err != nil {
			return nil, err
		}
		dbOn, objsOn, err := e18OpenReadDB(filepath.Join(root, fmt.Sprintf("e18-r%d-on", shards)), shards, hotObjects, true)
		if err != nil {
			dbOff.Close()
			return nil, err
		}
		var ratios []float64
		agg := map[string]*HotpathReadResult{
			"nocache": {Shards: shards, Mode: "nocache", Readers: readers, Millis: window.Milliseconds(), Reps: reps},
			"cache":   {Shards: shards, Mode: "cache", Readers: readers, Millis: window.Milliseconds(), Reps: reps},
		}
		samplesByMode := map[string][]float64{}
		for rep := 0; rep < reps; rep++ {
			var p50 [2]float64 // [nocache, cache] medians of this rep's windows
			var perRep = map[string][]float64{}
			for _, mode := range []string{"nocache", "cache", "cache", "nocache"} {
				db, objs := dbOn, objsOn
				if mode == "nocache" {
					db, objs = dbOff, objsOff
				}
				reads, samples, rate, err := e18ReadWindow(db, objs, readers, window)
				if err != nil {
					dbOff.Close()
					dbOn.Close()
					return nil, err
				}
				r := agg[mode]
				r.Reads += reads
				r.ReadsPerSec += float64(reads) / window.Seconds() / float64(2*reps)
				if mode == "cache" {
					// Rate over all cache windows (monotone counters make
					// the last window's cumulative view wrong; average the
					// per-window rates instead).
					r.HitRate += rate / float64(2*reps)
				}
				perRep[mode] = append(perRep[mode], samples...)
				samplesByMode[mode] = append(samplesByMode[mode], samples...)
			}
			for i, mode := range []string{"nocache", "cache"} {
				xs := perRep[mode]
				sort.Float64s(xs)
				p50[i] = percentile(xs, 0.50)
			}
			if p50[1] > 0 {
				ratios = append(ratios, p50[0]/p50[1])
			}
		}
		dbOff.Close()
		dbOn.Close()
		speedup := median(ratios)
		comparisons = append(comparisons, HotpathComparison{Shards: shards, P50Speedup: speedup})
		for _, mode := range []string{"nocache", "cache"} {
			xs := samplesByMode[mode]
			sort.Float64s(xs)
			r := agg[mode]
			r.P50US = percentile(xs, 0.50) / 1e3
			r.P99US = percentile(xs, 0.99) / 1e3
			var sum float64
			for _, x := range xs {
				sum += x
			}
			if len(xs) > 0 {
				r.MeanUS = sum / float64(len(xs)) / 1e3
			}
			readResults = append(readResults, *r)
			spd := ""
			if mode == "cache" {
				spd = fmt.Sprintf("%.2fx", speedup)
			}
			hr := ""
			if mode == "cache" {
				hr = fmt.Sprintf("%.1f%%", 100*r.HitRate)
			}
			t.AddRow("hot-read", fmt.Sprintf("%d", shards), mode,
				fmt.Sprintf("%.0f", r.ReadsPerSec),
				fmt.Sprintf("%.1f", r.MeanUS),
				fmt.Sprintf("%.1f/%.1f", r.P50US, r.P99US),
				hr, spd)
		}
	}

	if HotpathJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment  string               `json:"experiment"`
			Allocs      []HotpathAllocResult `json:"allocs"`
			Reads       []HotpathReadResult  `json:"reads"`
			Comparisons []HotpathComparison  `json:"comparisons"`
		}{"E18-hotpath", allocResults, readResults, comparisons}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(HotpathJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
