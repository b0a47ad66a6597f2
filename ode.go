// Package ode is a Go reproduction of the object-versioning design of
// the Ode object database ("Object Versioning in Ode", Agrawal, Buroff,
// Gehani & Shasha, ICDE 1991).
//
// The package provides persistent objects with identity, orthogonal
// versioning (any object can grow versions at any time, at no cost
// before the first NewVersion), generic references that always bind to
// the latest version (Ptr), specific references that pin one version
// (VPtr), automatically maintained temporal and derived-from
// relationships, version deletion with derivation-tree splicing,
// configurations, contexts, and triggers — all over a from-scratch
// storage engine with a write-ahead log and crash recovery.
//
// # Quick start
//
//	db, err := ode.Open(dir, nil)
//	parts, err := ode.Register[Part](db, "Part")
//	err = db.Update(func(tx *ode.Tx) error {
//	    p, err := parts.Create(tx, &Part{Name: "ALU"})   // pnew
//	    v0, err := p.Pin(tx)                             // specific ref
//	    v1, err := p.NewVersion(tx)                      // newversion
//	    err = v1.Set(tx, &Part{Name: "ALU", Rev: 2})
//	    cur, err := p.Deref(tx)                          // latest (Rev 2)
//	    old, err := v0.Deref(tx)                         // pinned (Rev 0)
//	    return err
//	})
//
// All reads and writes happen inside db.View / db.Update transactions;
// Update transactions are atomic and durable (WAL + crash recovery).
package ode

import (
	"fmt"
	"net"
	"net/http"

	"ode/internal/core"
	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
)

// Re-exported identifier types. OID is a generic reference to an object
// (binds to the latest version); VID identifies one immutable-identity
// version; Stamp is the logical creation clock.
type (
	// OID is an object id: a generic reference.
	OID = oid.OID
	// VID is a version id: a specific reference.
	VID = oid.VID
	// Stamp is a logical timestamp assigned at version creation.
	Stamp = oid.Stamp
	// TypeID is a registered type's catalog id.
	TypeID = oid.TypeID
)

// Errors surfaced by the public API.
var (
	ErrNoObject  = core.ErrNoObject
	ErrNoVersion = core.ErrNoVersion
	ErrNoType    = core.ErrNoType
	// ErrReadOnly reports a mutation inside a View transaction or on a
	// database opened with Options.ReadOnly.
	ErrReadOnly = txn.ErrReadOnly
	ErrClosed   = txn.ErrClosed
	// ErrShardMismatch reports Options.Shards disagreeing with the
	// shard count of an existing database directory.
	ErrShardMismatch = txn.ErrShardMismatch
	// ErrMixedLayout reports a directory with two candidates for shard
	// 0: a pre-shard data.ode and a data.000.
	ErrMixedLayout = txn.ErrMixedLayout
	// ErrPartialLayout reports a directory containing shard files but no
	// shard metadata (a deleted shards.ode); Open refuses it rather than
	// re-create over the leftovers.
	ErrPartialLayout = txn.ErrPartialLayout
)

// (ErrTxDone is declared alongside Tx in tx.go.)

// StoragePolicy is the type of Options.Policy.
type StoragePolicy uint8

// FS is the pluggable filesystem seam beneath the storage stack (see
// internal/faultfs). Production never sets it; the crash-consistency
// test matrix injects deterministic device faults through it.
type FS = faultfs.FS

// FullCopy, the one StoragePolicy, writes each version whole.
const FullCopy StoragePolicy = 0

// Options configures Open. The zero value (or nil) gives a 4 KiB page
// size, synchronous commits, and full-copy version storage.
type Options struct {
	// Shards is the number of independent storage shards (heap + WAL +
	// buffer pool + commit pipeline). Objects are routed to shards by
	// id, so unrelated commits proceed in parallel on distinct shards;
	// a transaction touching one shard commits exactly as before, one
	// touching several uses two-phase commit through a coordinator log.
	// 0 takes an existing directory's count (GOMAXPROCS for a fresh
	// one); an explicit value must match an existing directory
	// (ErrShardMismatch — Reshard is how the count changes) and a
	// negative one is an error. Every count is the same directory
	// layout, so a one-shard database can grow later; a directory
	// written before sharding existed is one shard, adopted in place by
	// its first writable Open (DESIGN.md §12.4).
	Shards int
	// Policy must be FullCopy, its one value (the zero value); delta
	// storage is DeltaTier.
	Policy StoragePolicy
	// DeltaTier enables the delta storage tier (DESIGN.md §14), the one
	// writer of deltas (the SCCS/RCS-style storage the paper describes):
	// the write that makes a version cold — a newversion, an update or a
	// pdelete — demotes its full payload to a delta against its
	// derived-from parent, so the latest stays full; an older version is
	// read by applying its delta chain. DB.Compact demotes history written
	// while the tier was off.
	DeltaTier bool
	// AnchorInterval bounds how many delta links any version may sit from
	// a full copy of its content: the tier demotes a version only within
	// it, and DB.Compact promotes versions found deeper (e.g. after the
	// interval was lowered). 0 means 16; it must lie in 0..65535.
	AnchorInterval int
	// DerefCacheBytes is the read-side dereference cache budget: a
	// sharded CLOCK cache of (latest vid, materialised content) keyed by
	// object id, letting hot Deref/latest reads on snapshot transactions
	// skip page decoding entirely. An entry serves until a commit changes
	// its own object. Independent of DeltaTier. 0 means core.DefaultDerefCacheBytes (4 MiB), negative
	// disables it.
	DerefCacheBytes int64
	// PageSize applies when creating a new database (default 4096).
	PageSize int
	// PoolPages is the buffer-pool capacity in pages, clean and dirty
	// together; 0 means 1536, and a value from 1 to 7 or a negative one
	// is an error (a pool holds at least 8 pages).
	PoolPages int
	// NoSync skips the fsync of each commit batch; the commit path is the
	// same. Much faster; the most recent commits may be lost on a crash. What survives is a committed prefix
	// of each shard's log, so a one-shard database keeps its integrity.
	// With more shards the logs flush independently and each keeps its
	// own prefix: a cross-shard Update, whose prepare, decision and commit
	// records are appended unsynced to three logs, can survive a power
	// loss on one of its shards and not the other (DESIGN.md §12.3). Every
	// shard stays structurally sound; atomicity across shards is what
	// NoSync gives up.
	NoSync bool
	// CheckpointBytes sets the WAL size that triggers a checkpoint (one
	// is also due when dirty pages fill three quarters of the pool);
	// <0 disables automatic checkpoints. An automatic checkpoint moves a
	// shard's log to its other file (wal.NNN.1, or back) and writes
	// pages back while commits go on, so the log may briefly hold two
	// segments: the size counts both until the old one is retired. It
	// bounds the decision log (coord.ode) too: a cross-shard Update that
	// leaves it at this size empties it.
	CheckpointBytes int64
	// ReadOnly opens the database without write permission.
	ReadOnly bool
	// FS overrides the filesystem the data file and WAL live on. Nil
	// (the default) means the real OS; tests install a fault-injecting
	// implementation to exercise crash consistency.
	FS FS
	// Tracer, when set, receives structured span events for every
	// write transaction (begin/prepare/fsync/publish/abort) and
	// checkpoint. The tracer runs on its own goroutine behind a
	// queue of DefaultTracerBuffer events: it may be slow, block, or
	// panic without ever stalling or corrupting a commit — events past
	// the queue bound are dropped and counted in
	// Metrics().TracerDropped.
	Tracer Tracer
	// DebugAddr, when non-empty, starts a debug HTTP listener on that
	// address (e.g. "127.0.0.1:6060" or "127.0.0.1:0") serving
	// GET /metrics (Prometheus text exposition) and GET /stats
	// (Stats as JSON). The listener closes with the DB; the bound
	// address is available from DebugAddr().
	DebugAddr string
}

// DB is an open Ode database.
type DB struct {
	coord *txn.Coordinator
	eng   *core.Engine
	path  string

	// debug HTTP listener state (metrics.go); nil without DebugAddr.
	debugLis net.Listener
	debugSrv *http.Server
}

// dir returns the database directory.
func (db *DB) dir() string { return db.path }

// Dir returns the database directory path.
func (db *DB) Dir() string { return db.path }

// Open opens the database in dir, creating it (and dir) if absent.
func Open(dir string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Policy != FullCopy {
		return nil, fmt.Errorf("ode: Options.Policy %d: FullCopy is the only policy; set DeltaTier for delta storage", o.Policy)
	}
	if o.AnchorInterval < 0 || o.AnchorInterval > core.MaxAnchorInterval {
		return nil, fmt.Errorf("ode: Options.AnchorInterval %d outside 0..%d", o.AnchorInterval, core.MaxAnchorInterval)
	}
	if o.PoolPages < 0 || (o.PoolPages > 0 && o.PoolPages < storage.MinPoolPages) {
		return nil, fmt.Errorf("ode: Options.PoolPages %d: 0 or at least %d", o.PoolPages, storage.MinPoolPages)
	}
	topts := txn.Options{
		Shards:          o.Shards,
		NoSync:          o.NoSync,
		CheckpointBytes: o.CheckpointBytes,
		FS:              o.FS,
		Tracer:          o.Tracer,
	}
	topts.Storage.PageSize = o.PageSize
	topts.Storage.PoolPages = o.PoolPages
	topts.Storage.ReadOnly = o.ReadOnly

	coord, err := txn.OpenCoordinator(dir, topts)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewSharded(coord, core.Options{
		DeltaTier:       o.DeltaTier,
		AnchorInterval:  o.AnchorInterval,
		DerefCacheBytes: o.DerefCacheBytes,
	})
	if err != nil {
		coord.Close()
		return nil, err
	}
	db := &DB{coord: coord, eng: eng, path: dir}
	if o.DebugAddr != "" {
		if err := db.startDebugServer(o.DebugAddr); err != nil {
			coord.Close()
			return nil, fmt.Errorf("ode: debug listener: %w", err)
		}
	}
	return db, nil
}

// Shards returns the number of logical storage shards backing this
// database — the count new allocations spread over. After a merge the
// physical file count can be higher (emptied shards are kept).
func (db *DB) Shards() int { return db.coord.N() }

// Reshard changes the logical shard count to n while the database keeps
// serving transactions: a split (for example 4 → 8) spreads existing and
// future load over more shards, a merge (8 → 4) folds shards away. Data
// moves in small transactional chunks through the ordinary two-phase
// commit path, so a crash at any point leaves the database recoverable —
// reopening finishes with a consistent map, and an interrupted reshard
// can simply be issued again to complete the migration. A concurrent
// Update that reaches another shard after a chunk's routing flip
// committed under it is restarted: its attempt is rolled back and its
// closure run again against the new placement. The restart unwinds the closure (and any trigger handler)
// by panic rather than returning an error, so code that drops errors
// cannot commit a partial attempt. n may exceed the original count.
func (db *DB) Reshard(n int) error {
	return db.eng.Reshard(n)
}

// ReshardProgress is the live progress snapshot of a Reshard: whether
// one is active, its target count, and the chunks, objects and versions
// migrated so far (counters freeze when the reshard completes).
type ReshardProgress = txn.ReshardProgress

// ReshardProgress reports the live progress of an in-flight Reshard:
// whether one is active, its target count, and the chunks, objects and
// versions migrated so far.
func (db *DB) ReshardProgress() txn.ReshardProgress {
	return db.eng.ReshardProgress()
}

// Close checkpoints and closes the database.
func (db *DB) Close() error {
	db.stopDebugServer()
	return db.coord.Close()
}

// Update runs fn in a read-write transaction. If fn returns nil the
// transaction commits durably; on error or panic it rolls back
// completely. On a sharded database fn may run more than once: an
// attempt that must wait for a shard out of order, or that a Reshard's
// routing flip overtook, is rolled back and fn rerun (see Reshard). The
// Tx is invalid once fn returns (ErrTxDone on later use).
func (db *DB) Update(fn func(tx *Tx) error) error {
	return db.eng.Write(func(ctx *core.Tx) error {
		tx := &Tx{db: db, ctx: ctx, writable: true}
		defer func() { tx.done = true }()
		return fn(tx)
	})
}

// View runs fn in a read-only transaction against a snapshot of the
// most recently committed state. Views run fully concurrently with each
// other and with Updates: a View neither blocks nor is blocked by a
// writer (including its commit fsync). On a sharded database the
// snapshot is taken atomically with respect to cross-shard commits: an
// Update that touched several shards is visible on all of them or none
// of them, never torn (single-shard Updates committing while the
// snapshot is taken may land shard by shard, but each is confined to
// one shard, so no transaction is ever seen partially). The Tx is
// invalid once fn returns (ErrTxDone on later use).
func (db *DB) View(fn func(tx *Tx) error) error {
	f := new(viewFrame)
	return db.eng.ReadIn(&f.rf, func(ctx *core.Tx) error {
		f.tx = Tx{db: db, ctx: ctx}
		defer func() { f.tx.done = true }()
		return fn(&f.tx)
	})
}

// viewFrame is every handle a View makes — its Tx, the engine's routing
// Tx and the coordinator's ReadTx — in one allocation. It is not reused,
// so a Tx kept past fn keeps failing with ErrTxDone.
type viewFrame struct {
	tx Tx
	rf core.ReadFrame
}

// Checkpoint flushes the page files and truncates the write-ahead logs
// (every shard's, and the coordinator's decision log).
func (db *DB) Checkpoint() error { return db.coord.Checkpoint() }

// Stats aggregates engine and transaction-manager counters.
type Stats struct {
	Objects     uint64
	Versions    uint64
	Commits     uint64
	Aborts      uint64
	Checkpoints uint64
	WALBytes    int64
	// Batches counts group-commit batches, one fsync each unless NoSync;
	// Commits/Batches is the mean number of transactions sharing one.
	Batches uint64
	// RecoveredTxns counts committed transactions replayed from the WAL
	// by crash recovery at Open.
	RecoveredTxns uint64
	// DerefCacheHits/Misses/Evictions/Bytes are the read-side
	// dereference cache counters (all zero when disabled).
	DerefCacheHits      uint64
	DerefCacheMisses    uint64
	DerefCacheEvictions uint64
	DerefCacheBytes     int64
	// AllocLeases counts batched id-allocator leases taken from the
	// superblock counters; AllocIDs counts ids handed out. Their ratio
	// approaches the lease size on allocation-heavy workloads.
	AllocLeases uint64
	AllocIDs    uint64
}

// Stats returns current database statistics.
func (db *DB) Stats() Stats {
	es := db.eng.Stats()
	ts := db.coord.Stats()
	ds, _ := db.eng.DerefCacheStats()
	st := Stats{
		Objects:             es.Objects,
		Versions:            es.Versions,
		Checkpoints:         ts.Checkpoints,
		WALBytes:            ts.WALBytes,
		Batches:             ts.Batches,
		RecoveredTxns:       ts.RecoveredTxns,
		DerefCacheHits:      ds.Hits,
		DerefCacheMisses:    ds.Misses,
		DerefCacheEvictions: ds.Evictions,
		DerefCacheBytes:     ds.Bytes,
	}
	db.fill(&st) // Commits, Aborts, AllocLeases, AllocIDs: loaded after ts.Batches
	return st
}

// CheckIntegrity validates every structural invariant of every object
// and index (expensive; meant for tests and tools).
func (db *DB) CheckIntegrity() error {
	return db.eng.Read(func(tx *core.Tx) error { return tx.CheckAll() })
}

// Engine exposes the underlying engine for the repository's internal
// tools and benchmarks. It is not part of the stable API.
func (db *DB) Engine() *core.Engine { return db.eng }
