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
)

// GroupCommitJSONPath, when non-empty, is where E12 writes its
// machine-readable results. cmd/odebench points it at
// BENCH_groupcommit.json in the invocation directory; tests leave it
// empty so quick runs emit nothing.
var GroupCommitJSONPath = ""

// GroupCommitResult is one E12 measurement cell. The percentile columns
// come from the engine's own commit-latency histogram (db.Metrics()),
// so they are exact to within one power-of-two bucket width.
type GroupCommitResult struct {
	Committers      int     `json:"committers"`
	CommitsPerSec   float64 `json:"commits_per_sec"`
	Commits         int64   `json:"commits"`
	Batches         uint64  `json:"fsync_batches"`
	CommitsPerBatch float64 `json:"commits_per_batch"`
	MeanLatencyUS   float64 `json:"mean_latency_us"`
	P50LatencyUS    float64 `json:"p50_latency_us"`
	P95LatencyUS    float64 `json:"p95_latency_us"`
	P99LatencyUS    float64 `json:"p99_latency_us"`
	Millis          int64   `json:"window_ms"`
}

// usFromNS converts a nanosecond histogram quantile to microseconds.
func usFromNS(ns uint64) float64 { return float64(ns) / 1e3 }

// groupCommitCell opens a fresh store with the given options, seeds one
// object per committer (disjoint objects — the cell measures the commit
// pipeline, not version-level contention) and lets nCommitters
// goroutines commit small in-place updates back-to-back with real
// fsyncs for one wall-clock window. It returns total commits, the
// fsync-batch count, the summed per-commit latency, and the engine's
// commit-latency histogram snapshot.
func groupCommitCell(dir string, opts *ode.Options, nCommitters int, window time.Duration) (int64, uint64, time.Duration, ode.HistSnapshot, error) {
	var hist ode.HistSnapshot
	db, err := ode.Open(dir, opts)
	if err != nil {
		return 0, 0, 0, hist, err
	}
	defer db.Close()
	ty, err := ode.RegisterWithCodec[Blob](db, "Blob", rawCodec{})
	if err != nil {
		return 0, 0, 0, hist, err
	}

	objs := make([]ode.OID, nCommitters)
	rng := rand.New(rand.NewSource(12))
	if err := db.Update(func(tx *ode.Tx) error {
		for i := range objs {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, 128, 0.5)})
			if err != nil {
				return err
			}
			objs[i] = p.OID()
		}
		return nil
	}); err != nil {
		return 0, 0, 0, hist, err
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
		go func(o ode.OID) {
			defer wg.Done()
			payload := Payload(rand.New(rand.NewSource(int64(len(objs)))), 64, 0.5)
			for !stop.Load() {
				t0 := time.Now()
				// A small in-place update is the canonical group-commit
				// workload: almost no CPU per txn, so the commit cost IS
				// the WAL flush. It is also stationary — NewVersion would
				// grow the version index over the window and make later
				// commits dearer than earlier ones.
				err := db.Update(func(tx *ode.Tx) error {
					_, err := tx.UpdateLatestRaw(o, payload)
					return err
				})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
				latencyNS.Add(time.Since(t0).Nanoseconds())
				commits.Add(1)
			}
		}(objs[i])
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

// E12 — group-commit throughput: synchronous commit rate as committer
// concurrency grows. Concurrent committers share a single fsync per
// group, so throughput should scale well past the device's fsync rate.
// The 1-committer row is that rate as measured — alone, every commit is
// its own batch and pays its own fsync — so it is both the yardstick
// the scaling column divides by and the latency-regression check: the
// committer flushes immediately and batches form only from natural
// backpressure, never from a timer. commits/batch (Stats.Commits over
// Stats.Batches for the window) says how much sharing each row got.
func E12(root string, s Scale) (*Table, error) {
	window := time.Duration(1500/s.Factor) * time.Millisecond
	if window < 150*time.Millisecond {
		window = 150 * time.Millisecond
	}

	t := &Table{
		Title:   "E12 — Group commit: synchronous commit throughput vs committer concurrency",
		Note:    fmt.Sprintf("Each committer loops a small in-place update on its own object with real fsyncs for %v per cell (512-byte pages, checkpoints off). Concurrent commits share one fsync; commits/batch = commits per fsync over the window. vs 1 = commits/s relative to the 1-committer row, where every commit pays its own fsync.", window),
		Headers: []string{"committers", "commits/s", "vs 1", "fsync batches", "commits/batch", "p50/p95/p99 (µs)"},
	}

	var results []GroupCommitResult
	for i, n := range []int{1, 4, 16, 64} {
		// Checkpoints off: a checkpoint stalls the whole pipeline while it
		// flushes the heap, and those pauses land at different points per
		// run — pure commit throughput is what this experiment measures.
		// 512-byte pages keep the physical redo images small (~3.5KB per
		// commit instead of ~27KB), so the commit cost is the fsync rather
		// than WAL write bandwidth — the regime group commit exists for,
		// and the one small-object OLTP workloads actually sit in.
		opts := &ode.Options{CheckpointBytes: -1, PageSize: 512}
		dir := filepath.Join(root, fmt.Sprintf("e12-%02d", i+1))
		commits, batches, latency, hist, err := groupCommitCell(dir, opts, n, window)
		if err != nil {
			return nil, err
		}
		r := GroupCommitResult{
			Committers:    n,
			CommitsPerSec: float64(commits) / window.Seconds(),
			Commits:       commits,
			Batches:       batches,
			P50LatencyUS:  usFromNS(hist.P50()),
			P95LatencyUS:  usFromNS(hist.P95()),
			P99LatencyUS:  usFromNS(hist.P99()),
			Millis:        window.Milliseconds(),
		}
		if commits > 0 {
			r.MeanLatencyUS = float64(latency.Microseconds()) / float64(commits)
		}
		if batches > 0 {
			r.CommitsPerBatch = float64(commits) / float64(batches)
		}
		results = append(results, r)
		scaling := 0.0
		if results[0].CommitsPerSec > 0 {
			scaling = r.CommitsPerSec / results[0].CommitsPerSec
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", r.CommitsPerSec),
			fmt.Sprintf("%.2fx", scaling),
			fmt.Sprintf("%d", r.Batches),
			fmt.Sprintf("%.1f", r.CommitsPerBatch),
			fmt.Sprintf("%.0f/%.0f/%.0f", r.P50LatencyUS, r.P95LatencyUS, r.P99LatencyUS))
	}

	if GroupCommitJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string              `json:"experiment"`
			Results    []GroupCommitResult `json:"results"`
		}{"E12-groupcommit", results}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(GroupCommitJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
