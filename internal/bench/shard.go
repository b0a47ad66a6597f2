package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/faultfs"
)

// ShardJSONPath, when non-empty, is where E14 writes its
// machine-readable results. cmd/odebench points it at BENCH_shard.json
// in the invocation directory; tests leave it empty.
var ShardJSONPath = ""

// e14FsyncLatency is the modeled device: every fsync costs this much,
// like a commodity SSD (tmpfs fsyncs in microseconds, which hides the
// very bottleneck sharding parallelizes — independent WAL pipelines
// waiting on the device concurrently).
const e14FsyncLatency = 3 * time.Millisecond

// slowFS wraps a filesystem and charges e14FsyncLatency per Sync.
type slowFS struct{ inner faultfs.FS }

func (s slowFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := s.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowFile{f}, nil
}
func (s slowFS) Stat(path string) (int64, error)              { return s.inner.Stat(path) }
func (s slowFS) MkdirAll(path string, perm os.FileMode) error { return s.inner.MkdirAll(path, perm) }
func (s slowFS) ReadDir(dir string) ([]string, error)         { return s.inner.ReadDir(dir) }

func (s slowFS) SyncDir(dir string) error {
	time.Sleep(e14FsyncLatency)
	return s.inner.SyncDir(dir)
}

type slowFile struct{ faultfs.File }

func (f slowFile) Sync() error {
	time.Sleep(e14FsyncLatency)
	return f.File.Sync()
}

// ShardResult is one E14 measurement cell.
type ShardResult struct {
	Shards        int     `json:"shards"`
	Committers    int     `json:"committers"`
	Workload      string  `json:"workload"` // "single" or "cross" (2PC-heavy)
	CommitsPerSec float64 `json:"commits_per_sec"`
	Commits       int64   `json:"commits"`
	// CommitsPerBatch is the window's commits over its fsync batches
	// (Stats.Batches).
	CommitsPerBatch float64 `json:"commits_per_batch"`
	// FsyncBound is the analytic one-fsync-per-commit ceiling on the
	// modeled device: shards / flush latency. Zero for "cross", whose
	// commits are not one flush each.
	FsyncBound    float64 `json:"fsync_bound_commits_per_sec"`
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	Millis        int64   `json:"window_ms"`
}

// shardCell opens a store with n shards on the modeled device, seeds
// one object per committer (the engine round-robins fresh objects
// across shards, so committers land evenly), and lets each committer
// loop small in-place updates for one window. With crossShard, every
// transaction touches the committer's own object AND its neighbour's —
// on distinct shards that is a presumed-abort 2PC commit. It returns
// the window's commits, its fsync-batch count, the summed per-commit
// latency and the engine's commit-latency histogram.
func shardCell(dir string, shards, nCommitters int, crossShard bool, window time.Duration) (int64, uint64, time.Duration, ode.HistSnapshot, error) {
	var hist ode.HistSnapshot
	db, err := ode.Open(dir, &ode.Options{
		Shards:          shards,
		CheckpointBytes: -1,
		PageSize:        512,
		FS:              slowFS{faultfs.OS},
	})
	if err != nil {
		return 0, 0, 0, hist, err
	}
	defer db.Close()
	ty, err := ode.RegisterWithCodec[Blob](db, "Blob", rawCodec{})
	if err != nil {
		return 0, 0, 0, hist, err
	}
	objs := make([]ode.OID, nCommitters)
	rng := rand.New(rand.NewSource(14))
	for i := range objs {
		// One create per transaction: the allocator round-robins each
		// transaction's first object, spreading committers over shards.
		if err := db.Update(func(tx *ode.Tx) error {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, 128, 0.5)})
			objs[i] = p.OID()
			return err
		}); err != nil {
			return 0, 0, 0, hist, err
		}
	}
	startBatches := db.Stats().Batches

	var (
		commits   atomic.Int64
		latencyNS atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
	)
	for i := 0; i < nCommitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mine, next := objs[i], objs[(i+1)%nCommitters]
			payload := Payload(rand.New(rand.NewSource(int64(i))), 64, 0.5)
			for !stop.Load() {
				t0 := time.Now()
				err := db.Update(func(tx *ode.Tx) error {
					if _, err := tx.UpdateLatestRaw(mine, payload); err != nil {
						return err
					}
					if crossShard {
						if _, err := tx.UpdateLatestRaw(next, payload); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
				latencyNS.Add(time.Since(t0).Nanoseconds())
				commits.Add(1)
			}
		}(i)
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return 0, 0, 0, hist, firstErr
	}
	hist = db.Metrics().CommitLatency
	return commits.Load(), db.Stats().Batches - startBatches,
		time.Duration(latencyNS.Load()), hist, nil
}

// E14 — shard scaling: synchronous commit throughput of 16 concurrent
// committers as the shard count grows, on a modeled commodity device
// (every fsync costs e14FsyncLatency). Each shard owns its WAL, buffer
// pool, writer mutex and commit pipeline:
//
//   - single: every transaction stays on its committer's shard and
//     commits through that shard's group-commit pipeline. The bound
//     column is what one fsync per commit would allow — shards / flush
//     latency, each shard's pipeline waiting on the device on its own;
//     throughput above it is fsyncs shared (commits/batch says how
//     many), and growth with the shard count is the pipelines
//     overlapping their device waits.
//   - cross: every transaction also touches a neighbour's object,
//     usually on another shard — each commit is a presumed-abort 2PC
//     (two prepares + a coordinator decision record), pricing the
//     cross-shard path.
func E14(root string, s Scale) (*Table, error) {
	window := time.Duration(2000/s.Factor) * time.Millisecond
	if window < 300*time.Millisecond {
		window = 300 * time.Millisecond
	}
	const committers = 16

	t := &Table{
		Title:   "E14 — Sharding: 16-committer commit throughput vs shard count",
		Note:    fmt.Sprintf("16 committers loop small in-place updates on their own objects for %v per cell on a modeled device (%v per fsync; tmpfs hides the device wait sharding parallelizes). single = shard-local txns through each shard's group-commit pipeline; cross = every txn spans two shards (2PC: two prepares + coordinator record). bound = shards/flush, the analytic ceiling if every commit paid its own fsync (single only); commits/batch = commits per group fsync. Speedup is vs the 1-shard cell of the same workload.", window, e14FsyncLatency),
		Headers: []string{"shards", "workload", "commits/s", "speedup", "bound", "commits/batch", "mean (µs)", "p50/p95/p99 (µs)"},
	}

	var results []ShardResult
	base := map[string]float64{}
	cell := 0
	for _, workload := range []string{"single", "cross"} {
		for _, n := range []int{1, 2, 4, 8} {
			cell++
			dir := filepath.Join(root, fmt.Sprintf("e14-%02d", cell))
			commits, batches, latency, hist, err := shardCell(dir, n, committers, workload == "cross", window)
			if err != nil {
				return nil, err
			}
			r := ShardResult{
				Shards:        n,
				Committers:    committers,
				Workload:      workload,
				CommitsPerSec: float64(commits) / window.Seconds(),
				Commits:       commits,
				P50LatencyUS:  usFromNS(hist.P50()),
				P95LatencyUS:  usFromNS(hist.P95()),
				P99LatencyUS:  usFromNS(hist.P99()),
				Millis:        window.Milliseconds(),
			}
			bound := "-"
			if workload == "single" {
				r.FsyncBound = float64(n) / e14FsyncLatency.Seconds()
				bound = fmt.Sprintf("%.0f", r.FsyncBound)
			}
			if commits > 0 {
				r.MeanLatencyUS = float64(latency.Microseconds()) / float64(commits)
			}
			if batches > 0 {
				r.CommitsPerBatch = float64(commits) / float64(batches)
			}
			results = append(results, r)
			if n == 1 {
				base[workload] = r.CommitsPerSec
			}
			speedup := 0.0
			if base[workload] > 0 {
				speedup = r.CommitsPerSec / base[workload]
			}
			t.AddRow(fmt.Sprintf("%d", n), workload,
				fmt.Sprintf("%.0f", r.CommitsPerSec),
				fmt.Sprintf("%.2fx", speedup),
				bound,
				fmt.Sprintf("%.1f", r.CommitsPerBatch),
				fmt.Sprintf("%.1f", r.MeanLatencyUS),
				fmt.Sprintf("%.0f/%.0f/%.0f", r.P50LatencyUS, r.P95LatencyUS, r.P99LatencyUS))
		}
	}

	if ShardJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string        `json:"experiment"`
			Results    []ShardResult `json:"results"`
		}{"E14-shard-scaling", results}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(ShardJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
