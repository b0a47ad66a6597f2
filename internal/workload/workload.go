// Package workload is the YCSB-style versioned-workload harness with a
// model-based oracle (DESIGN.md §13, odebench E15).
//
// A Run drives a configurable pool of workers against a sharded store.
// A seed-driven generator picks objects under zipfian (or uniform) key
// skew and applies one of four version shapes — long linear revision
// chains, wide alternative trees, as-of temporal walks, or
// checkout/checkin + percolation churn. Every committed mutation is
// mirrored into an in-memory reference model, and every read (Deref,
// latest, as-of, history, leaves, Extent) is validated against the
// model's expected version-graph state.
//
// The oracle's consistency protocol: each model object carries a mutex
// that the owning worker holds across the db.Update AND the model
// mirror, and again across the db.View that validates a read. Because
// the engine's Update returns only after the commit's epoch is
// published, the snapshot a subsequent View pins provably contains
// exactly the mirrored commits for that object — the model state at the
// pinned epoch. Zipfian skew still produces real contention: workers
// collide on shard writer mutexes, group-commit batches and cross-shard
// 2PC, just not on the same model object mid-mirror.
//
// A violation does not merely fail: it carries the seed, the full
// generator configuration and the object's recent op trace, so the
// failure is a minimal repro recipe.
package workload

import (
	"fmt"
	"strings"
	"time"

	"ode"
)

// Shape selects the version-graph shape a run grows.
type Shape string

const (
	// ShapeLinear grows long linear revision chains: newversion on the
	// latest plus in-place updates, read back through latest/history.
	ShapeLinear Shape = "linear"
	// ShapeTree grows wide alternative trees: newversion from random
	// live bases, in-place version updates and pdelete splicing,
	// validated through leaves/D-children/history.
	ShapeTree Shape = "tree"
	// ShapeTemporal grows chains and reads them back through as-of
	// lookups (index and Tprevious walk) at random pinned stamps.
	ShapeTemporal Shape = "temporal"
	// ShapeChurn drives checkout/checkin/abandon through the workspace
	// policy with the percolation policy cascading component versions
	// into per-group composites.
	ShapeChurn Shape = "churn"
	// ShapeDeep grows very deep linear chains whose payloads are small
	// edits of their predecessor (so the delta tier can actually
	// compress them), read back through as-of walks and random-depth
	// derefs — the shape the delta storage tier is proven against.
	ShapeDeep Shape = "deep"
)

// Shapes lists every shape in a stable order.
func Shapes() []Shape {
	return []Shape{ShapeLinear, ShapeTree, ShapeTemporal, ShapeChurn, ShapeDeep}
}

// KeyDist selects how workers pick objects.
type KeyDist string

const (
	// KeyZipfian skews traffic onto a small hot set (YCSB's default).
	KeyZipfian KeyDist = "zipfian"
	// KeyUniform is the unskewed control the benchmark pairs against.
	KeyUniform KeyDist = "uniform"
)

// Config parameterises one Run. The zero value is not runnable; Seed,
// Dir, Shape and the sizing fields must be set (withDefaults fills the
// rest).
type Config struct {
	// Seed drives every generator decision. With one worker a run
	// replays exactly; with many, the seed still pins each worker's rng
	// (op choices also observe model state, so the concurrent mix
	// depends on interleaving).
	Seed int64
	// Dir is the database directory (created by Run).
	Dir string
	// Shards is the store's shard count.
	Shards int
	// Workers is the worker-pool size.
	Workers int
	// Objects is the object population created at setup.
	Objects int
	// OpsPerWorker bounds the run by op count (ignored when Duration is
	// set).
	OpsPerWorker int
	// Duration bounds the run by wall clock instead of op count.
	Duration time.Duration
	// Shape is the version-graph shape to grow.
	Shape Shape
	// Dist is the key distribution (default zipfian).
	Dist KeyDist
	// ZipfS is the zipfian skew exponent (default 1.4; must be > 1).
	ZipfS float64
	// PayloadBytes bounds version payload sizes (default 96).
	PayloadBytes int
	// ExtentEvery runs a full extent validation every N ops per worker
	// (default 64).
	ExtentEvery int
	// Options are extra open options (e.g. NoSync for benchmarks).
	// Shards is overridden from Config.Shards.
	Options *ode.Options

	// Mid, when set, runs on its own goroutine concurrently with the
	// worker pool — the hook the live-reshard tests use to split or
	// merge the store under traffic. Run waits for it after the workers
	// finish; a non-nil error fails the run like an oracle violation.
	Mid func(db *ode.DB) error

	// corrupt, when set, is invoked on the model after setup — the test
	// hook that proves the oracle actually catches divergence.
	corrupt func(objs []*object)
}

func (c Config) withDefaults() (Config, error) {
	if c.Dir == "" {
		return c, fmt.Errorf("workload: Config.Dir is required")
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Objects < 2 {
		return c, fmt.Errorf("workload: need at least 2 objects, have %d", c.Objects)
	}
	if c.OpsPerWorker < 1 && c.Duration <= 0 {
		return c, fmt.Errorf("workload: one of OpsPerWorker or Duration is required")
	}
	switch c.Shape {
	case ShapeLinear, ShapeTree, ShapeTemporal, ShapeChurn, ShapeDeep:
	default:
		return c, fmt.Errorf("workload: unknown shape %q", c.Shape)
	}
	if c.Dist == "" {
		c.Dist = KeyZipfian
	}
	if c.Dist != KeyZipfian && c.Dist != KeyUniform {
		return c, fmt.Errorf("workload: unknown key distribution %q", c.Dist)
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.4
	}
	if c.PayloadBytes < 8 {
		c.PayloadBytes = 96
	}
	if c.ExtentEvery < 1 {
		c.ExtentEvery = 64
	}
	return c, nil
}

// Result summarises a completed run.
type Result struct {
	Shape   Shape
	Dist    KeyDist
	Shards  int
	Workers int
	Objects int
	Seed    int64

	// Ops is the total generator steps; every step is one mutation or
	// one validated read. Mutations + Reads == Ops.
	Ops       int64
	Mutations int64
	Reads     int64
	// ExtentScans counts full cross-shard extent validations.
	ExtentScans int64

	Elapsed   time.Duration
	OpsPerSec float64

	// CommitLatency is the engine-side whole-Update histogram (ns),
	// rolled up across shards by db.Metrics.
	CommitLatency ode.HistSnapshot
	// MutLatency / ReadLatency are harness-side per-op histograms (ns):
	// a mutation op is one db.Update incl. the oracle mirror; a read op
	// is one db.View incl. the oracle comparison.
	MutLatency  ode.HistSnapshot
	ReadLatency ode.HistSnapshot
}

// Violation is the oracle's failure report: what diverged, plus the
// seed, generator configuration and the object's recent op trace — a
// minimal repro recipe.
type Violation struct {
	Seed    int64
	Shape   Shape
	Dist    KeyDist
	Shards  int
	Workers int
	Objects int

	Worker int
	Op     int
	OID    ode.OID
	Detail string
	// Trace is the object's most recent committed mutations (newest
	// last), as recorded by the workers that produced them.
	Trace []string
}

func (v *Violation) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload: oracle violation: %s\n", v.Detail)
	fmt.Fprintf(&sb, "  at: worker %d, op %d, object %v\n", v.Worker, v.Op, v.OID)
	fmt.Fprintf(&sb, "  repro: seed=%d shape=%s dist=%s shards=%d workers=%d objects=%d\n",
		v.Seed, v.Shape, v.Dist, v.Shards, v.Workers, v.Objects)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&sb, "  object op trace (oldest first):\n")
		for _, line := range v.Trace {
			fmt.Fprintf(&sb, "    %s\n", line)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}
