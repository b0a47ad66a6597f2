// Package txn implements Ode's transaction manager: single-writer /
// multi-reader snapshot isolation, redo-only write-ahead logging of what
// each transaction changed on its pages (a full image on first touch,
// positional deltas after), in-memory before-images for abort, crash
// recovery, and log-truncating checkpoints.
//
// The durability contract: when Write returns nil, the transaction's
// effects survive a crash (its page records and commit record are
// fsynced in the WAL before Write returns). A transaction that returns
// an error, or panics, is rolled back completely. The write path itself
// — the one sequence every write transaction takes — is in joined.go.
//
// Concurrency: writers serialise on a narrow mutex; readers never take
// it. Read pins a buffer-pool epoch (advanced by each commit after WAL
// fsync) and runs against copy-on-write page snapshots, so a View
// neither blocks nor is blocked by a concurrent Update — including its
// commit fsync. The paper does not discuss concurrency control; this
// model is the substrate a real library needs and is documented as
// beyond-paper (DESIGN.md §2, §9).
package txn

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// DataFileName and WALFileName are the files a Manager used on its own
// keeps in its directory — which is all a database directory held before
// shards existed, and what shard 0 of such a directory, once adopted by
// a Coordinator, is still called (ShardFileNames).
const (
	DataFileName = "data.ode"
	WALFileName  = "wal.ode"
)

// ErrClosed reports use of a closed manager.
var ErrClosed = errors.New("txn: manager closed")

// ErrReadOnly reports a write on a read-only manager.
var ErrReadOnly = errors.New("txn: database opened read-only")

// ErrNeedsRecovery reports a read-only open of a database whose WAL
// holds committed work that the data file does not yet reflect.
var ErrNeedsRecovery = errors.New("txn: read-only open requires crash recovery; open writable once first")

// ErrPoisoned reports a manager disabled by an earlier unrecoverable
// I/O failure. Durable state is intact (the WAL was preserved); reopen
// the database to resume writing.
var ErrPoisoned = errors.New("txn: manager disabled by earlier I/O error; reopen to recover")

// Options configures the manager.
type Options struct {
	// Storage is forwarded to the storage layer.
	Storage storage.Options
	// NoSync skips the fsync of each commit batch; the commit path is the
	// same. A commit is acknowledged once its records are in the log's
	// write buffer. Throughput rises at the price of durability of the
	// most recent commits; used by benchmarks to isolate CPU costs.
	// Checkpoints fsync as always — the log segment they write back
	// before the first page write, the data file, then that segment once
	// emptied — so what survives a crash is a committed prefix, never a
	// torn database.
	NoSync bool
	// CheckpointBytes overrides DefaultCheckpointBytes; <0 disables
	// automatic checkpoints, by either trigger. The size counts both of a
	// shard's log segments while an automatic checkpoint writes pages back
	// from the old one. It bounds a coordinator's
	// decision log (coord.ode) too: a cross-shard commit that leaves that
	// log at this size empties it (Coordinator.trimDecisionLog).
	CheckpointBytes int64
	// FS is the filesystem the data file and WAL live on. Nil means the
	// real OS. The crash-consistency matrix installs a fault-injecting
	// implementation (internal/faultfs) here.
	FS faultfs.FS
	// Tracer, when set, receives structured span events for every
	// write transaction (begin/prepare/fsync/publish/abort) and
	// checkpoint. Delivery is decoupled through a queue of
	// obs.DefaultTracerBuffer events; ones past the bound are dropped (and
	// counted) rather than ever blocking a commit. See obs.Sink.
	Tracer obs.Tracer
	// Shards is consumed by OpenCoordinator: the number of independent
	// storage shards (heap + pool + WAL + commit pipeline each) a new
	// database is created with. 0 means GOMAXPROCS for a fresh directory
	// and "whatever the directory already has" for an existing one; an
	// explicit value that contradicts an existing directory is
	// ErrShardMismatch (Reshard changes the count), a negative one is an
	// error. Every count, 1 included, is the same directory layout.
	// Individual Managers ignore it.
	Shards int

	// Coordinator-internal plumbing (same package only). dataFile and
	// walFile name a shard's files (ShardFileNames); decided is
	// the coordinator-log decision set recovery consults for in-doubt
	// prepared transactions; sink is the shared tracer sink a
	// coordinated shard must use (and must not close). onPublish is the
	// owning coordinator's Coordinator.published: the shard calls it
	// whenever what a new reader of it must observe has changed — a
	// commit published (Manager.publish), or Close began — and the
	// coordinator retires its readers' shared snapshot there. onRollback
	// is its Coordinator.rolledBack: rollbackQuiet calls it with shardID
	// and the pages it restored and forgot, under the writer mutex, after
	// every rollback. Both are nil on a Manager used on its own.
	dataFile    string
	walFile     string
	decided     map[uint64]bool
	sink        *obs.Sink
	coordinated bool
	shardID     int
	onPublish   func()
	onRollback  func(shard int, restored []*storage.Page, forgotten []oid.PageID)
}

// dataFileName and walFileName resolve the manager's file names: a
// shard's, or DataFileName/WALFileName for a Manager used on its own.
func (o *Options) dataFileName() string {
	if o.dataFile != "" {
		return o.dataFile
	}
	return DataFileName
}

func (o *Options) walFileName() string {
	if o.walFile != "" {
		return o.walFile
	}
	return WALFileName
}

// fsys resolves the filesystem the manager should use: Options.FS, then
// the storage-level hook, then the real OS.
func (o *Options) fsys() faultfs.FS {
	if o.FS != nil {
		return o.FS
	}
	if o.Storage.FS != nil {
		return o.Storage.FS
	}
	return faultfs.OS
}

// checkpointBytes is the log size that makes a checkpoint due — a
// shard's, or the decision log's trim; negative when automatic
// checkpoints are off.
func (o *Options) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return DefaultCheckpointBytes
	}
	return o.CheckpointBytes
}

// Stats reports manager activity since open.
type Stats struct {
	Commits       uint64
	Aborts        uint64
	Checkpoints   uint64
	RecoveredTxns uint64
	WALBytes      int64
	// Batches counts group-commit batches (flights), one fsync each
	// unless NoSync; Commits/Batches is the mean group size.
	Batches uint64
}

// Manager owns one database directory: its store, its WAL, and the
// writer lock. Readers do not take the writer lock: they are admitted
// under rmu (a brief critical section) and then run lock-free against
// an epoch-pinned snapshot view.
type Manager struct {
	// mu is the writer lock: write transactions (lockWriter through
	// submit), the in-memory part of a checkpoint, failFlights, and the
	// tail of Close serialise on it. st (superblock mutation), nextTx and
	// seg are writer-side state guarded by it.
	mu     sync.Mutex
	st     *storage.Store
	opts   Options
	nextTx uint64 // in-memory: txids only disambiguate within one log lifetime
	// lockedAt is when mu was last taken; unlockWriter observes the hold
	// from it.
	lockedAt time.Time

	// logMu guards the WAL: the writer leading a flight appends it
	// without holding mu (its fsync, Log.SyncFile, runs off both locks),
	// while checkpoints (under mu, pipeline drained) sync, reset or switch
	// it. Lock order is mu before logMu; a logMu holder never takes mu.
	logMu sync.Mutex
	log   *wal.Log

	// The log's segments. walPath is the log's first file; an automatic
	// checkpoint switches the log to its other file (segmentFile) and
	// back. old is the segment a checkpoint switched away from, until it
	// retires it (nil otherwise); any goroutine may load it. spare is the
	// retired segment, renewed as the next one, that the next switch goes
	// on in (nil before the first). seg numbers the segments of this
	// session from 1: a page whose image the current segment holds carries
	// it (storage.Page.Seg). run is the automatic checkpoint writing pages
	// back off the writer mutex, nil when none: one at a time, set by the
	// checkpoint under the quiesced writer mutex and cleared by it when
	// done; spare is its to set, and is read only while none runs.
	walPath string
	old     atomic.Pointer[wal.Log]
	spare   *wal.Log
	seg     uint64
	run     atomic.Pointer[ckptRun]

	// gc is the commit pipeline, which the writers run themselves; the
	// checkpointer, the shard's one goroutine, runs automatic checkpoints
	// off the commit path, one per kick (ckptKick holds one, so kicks
	// coalesce). Every Manager has both, a read-only one included.
	gc       *groupCommitter
	ckptKick chan struct{}
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	// rmu guards reader admission and closed; Close flips closed and
	// then drains in-flight readers via the WaitGroup.
	rmu     sync.Mutex
	readers sync.WaitGroup
	closed  bool

	recovered uint64 // transactions replayed at open; read-only after

	// m is this shard's registry, shared with its pool and its log (and,
	// for id allocation, the engine): what happens on the shard is counted
	// there, once. sink delivers tracer spans; nil without a tracer. A
	// coordinated shard shares the coordinator's sink and must not close
	// it (ownSink).
	m       *obs.Metrics
	sink    *obs.Sink
	ownSink bool

	// ioErr, once set, permanently disables writes: an I/O failure left
	// the in-memory state and the on-disk state possibly divergent in a
	// way only recovery (a reopen) can reconcile. The WAL is preserved
	// so no acked commit is lost. Set by poison, from any goroutine — a
	// checkpoint writing pages back holds no lock.
	ioErr atomic.Pointer[error]
}

// tracker captures before-images for abort and the dirty set for commit
// logging. It implements storage.MutationTracker; one is born per write
// transaction and dies with it (there is no global tracker seam).
type tracker struct {
	before    map[oid.PageID]beforeImage
	allocated map[oid.PageID]bool
}

type beforeImage struct {
	data     []byte
	wasDirty bool
	// seg is the page's Seg before stage set it to the current segment's
	// (staged): what a rollback puts back, the before-image being no more
	// in the current segment than it was.
	seg    uint64
	staged bool
}

func newTracker() *tracker {
	return &tracker{
		before:    make(map[oid.PageID]beforeImage),
		allocated: make(map[oid.PageID]bool),
	}
}

// BeforeMutate implements storage.MutationTracker. before aliases the
// pool's immutable snapshot page, so no copy is made here; rollback
// copies it back into the (distinct) live page.
func (tr *tracker) BeforeMutate(id oid.PageID, before []byte, wasDirty bool) {
	if tr.allocated[id] {
		return // born this txn; no before-image exists
	}
	if _, ok := tr.before[id]; ok {
		return
	}
	tr.before[id] = beforeImage{data: before, wasDirty: wasDirty}
}

// DidAllocate implements storage.MutationTracker.
func (tr *tracker) DidAllocate(id oid.PageID) { tr.allocated[id] = true }

// dirty reports whether the transaction touched any page at all.
func (tr *tracker) dirty() bool { return len(tr.before)+len(tr.allocated) > 0 }

// touchedPages returns the transaction's dirty set: every page with a
// before-image plus every allocation, in page order — so the same
// transactions always stage the same WAL bytes.
func (tr *tracker) touchedPages() []oid.PageID {
	touched := make([]oid.PageID, 0, len(tr.before)+len(tr.allocated))
	for id := range tr.before {
		touched = append(touched, id)
	}
	for id := range tr.allocated {
		if _, dup := tr.before[id]; !dup {
			touched = append(touched, id)
		}
	}
	slices.Sort(touched)
	return touched
}

// Tracked implements storage.MutationTracker: the view skips the
// copy-on-write for pages this transaction already captured.
func (tr *tracker) Tracked(id oid.PageID) bool {
	if tr.allocated[id] {
		return true
	}
	_, ok := tr.before[id]
	return ok
}

// Create initialises a new database directory.
func Create(dir string, opts Options) (*Manager, error) {
	fsys := opts.fsys()
	opts.Storage.FS = fsys
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: mkdir %s: %w", dir, err)
	}
	st, err := storage.Create(filepath.Join(dir, opts.dataFileName()), opts.Storage)
	if err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, opts.walFileName())
	log, err := wal.OpenFS(fsys, walPath)
	if err != nil {
		st.Close()
		return nil, err
	}
	m := newManager(st, log, walPath, opts)
	m.initObs()
	m.startPipeline()
	return m, nil
}

// newManager assembles a Manager over an open store and log, the log in
// its first file (walPath) and the current segment numbered 1.
func newManager(st *storage.Store, log *wal.Log, walPath string, opts Options) *Manager {
	return &Manager{st: st, log: log, opts: opts, walPath: walPath, seg: 1}
}

// initObs builds the shard's registry and the tracer sink (when a tracer
// is configured), moving the pool and the log onto the registry before
// either is shared across goroutines.
func (m *Manager) initObs() {
	m.m = obs.New()
	m.st.Pool().SetMetrics(m.m)
	m.log.SetMetrics(m.m)
	if m.opts.coordinated {
		// Coordinated shard: spans flow through the coordinator's shared
		// sink (which also owns the dropped counter); never close it here.
		m.sink = m.opts.sink
		return
	}
	m.sink = obs.NewSink(m.opts.Tracer, obs.DefaultTracerBuffer, &m.m.TracerDropped)
	m.ownSink = true
}

// Metrics returns the shard's registry.
func (m *Manager) Metrics() *obs.Metrics { return m.m }

// startPipeline sets up the group commit pipeline and launches the
// background checkpointer.
func (m *Manager) startPipeline() {
	m.gc = &groupCommitter{m: m}
	m.gc.changed = sync.NewCond(&m.gc.qmu)
	m.ckptKick = make(chan struct{}, 1)
	m.ckptStop = make(chan struct{})
	m.ckptWG.Add(1)
	go m.checkpointer()
}

// Open opens an existing database directory, running crash recovery
// first if the WAL holds committed work. A read-only open refuses to
// run recovery (it would have to write); open writable once to recover.
func Open(dir string, opts Options) (*Manager, error) {
	fsys := opts.fsys()
	opts.Storage.FS = fsys
	dataPath := filepath.Join(dir, opts.dataFileName())
	walPath := filepath.Join(dir, opts.walFileName())
	log, second, err := openLogFiles(fsys, walPath)
	if err != nil {
		return nil, err
	}
	segs := replayOrder(log, second)
	closeAll := func() {
		for _, l := range segs {
			l.Close()
		}
	}
	var recovered uint64
	if opts.Storage.ReadOnly {
		_, pending, err := replay(opts.decided, segs...)
		if err != nil {
			closeAll()
			return nil, err
		}
		if pending > 0 {
			closeAll()
			return nil, ErrNeedsRecovery
		}
	} else {
		recovered, err = recover2(fsys, segs, dataPath, opts.decided)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("txn: recovery: %w", err)
		}
	}
	// Nothing committed is left in the log's files (or, read-only, nothing
	// was there): the log goes on in its first file.
	if second != nil {
		if err := second.Close(); err != nil {
			log.Close()
			return nil, err
		}
	}
	st, err := storage.Open(dataPath, opts.Storage)
	if err != nil {
		log.Close()
		return nil, err
	}
	m := newManager(st, log, walPath, opts)
	m.recovered = recovered
	m.initObs()
	m.startPipeline()
	return m, nil
}

// openLogFiles opens the log whose first file is at walPath: that file,
// and the second (segmentFile) if the log ever moved there, else nil.
func openLogFiles(fsys faultfs.FS, walPath string) (first, second *wal.Log, err error) {
	if first, err = wal.OpenFS(fsys, walPath); err != nil {
		return nil, nil, err
	}
	path := segmentFile(walPath)
	if _, err = fsys.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return first, nil, nil
	}
	if err == nil {
		second, err = wal.OpenFS(fsys, path)
	}
	if err != nil {
		first.Close()
		return nil, nil, err
	}
	return first, second, nil
}

// replayOrder lists a log's files oldest segment first. Two files hold
// consecutive generations when both hold records (one checkpoint at a
// time switches); when one is empty the order does not matter.
func replayOrder(first, second *wal.Log) []*wal.Log {
	switch {
	case second == nil:
		return []*wal.Log{first}
	case int16(second.Gen()-first.Gen()) < 0:
		return []*wal.Log{second, first}
	}
	return []*wal.Log{first, second}
}

// replay rebuilds, in memory, the pages the log's committed
// transactions wrote, and counts those transactions; it is the one rule
// for which logged transactions committed. Recovery writes redo back
// (recover2); a read-only open only asks whether committed is zero. segs
// are the log's files oldest segment first (replayOrder).
//
// Pages are rebuilt from the log alone, in commit order: a page image
// replaces the page's state, a page delta is applied on top of the state
// the transactions committed before it left — never on top of the data
// file, whose copy an interrupted checkpoint may have torn. Every page a
// segment mentions starts there with an image (Manager.stage), so a delta
// without one in its own segment is a corrupt log and fails recovery:
// once the older segment is retired the newer must rebuild its pages
// alone. A transaction that never committed — a crash's tail, a 2PC
// prepare aborted live — was rolled back in memory before the next one
// began, so its records are skipped, not applied and undone. No
// transaction spans two segments: the log switches with the commit
// pipeline drained, under the writer mutex a 2PC participant holds from
// prepare to decide.
//
// decided is the coordinator log's decision set (nil for a standalone
// manager): a prepared transaction without a local commit record — the
// crash landed between 2PC prepare and the shard-local decide — commits
// iff its global id is in the set, and is presumed aborted otherwise.
// Such a transaction is always the newest in its log (the shard's
// writer mutex is held from prepare to decide), so applying it after
// every locally committed transaction preserves redo order.
func replay(decided map[uint64]bool, segs ...*wal.Log) (redo map[oid.PageID][]byte, committed uint64, err error) {
	type txPages struct {
		recs     []wal.Record // RecPageImage and RecPageDelta, in log order
		prepared bool
		gtid     uint64
		seq      int                 // begin order, to apply in-doubt commits deterministically
		imaged   map[oid.PageID]bool // the pages committed transactions imaged in its segment
	}
	pending := map[oid.TxID]*txPages{}
	redo = map[oid.PageID][]byte{}
	var seq int
	apply := func(t *txPages) error {
		committed++
		for _, rec := range t.recs {
			if rec.Type == wal.RecPageImage {
				redo[rec.Page] = rec.Data // Scan allocates each payload afresh
				t.imaged[rec.Page] = true
				continue
			}
			if !t.imaged[rec.Page] {
				return fmt.Errorf("page delta at %v for page %d, which no committed transaction in its log segment imaged", rec.LSN, rec.Page)
			}
			if err := wal.ApplyPageDelta(redo[rec.Page], rec.Data); err != nil {
				return fmt.Errorf("page %d at %v: %w", rec.Page, rec.LSN, err)
			}
		}
		return nil
	}
	for _, log := range segs {
		imaged := map[oid.PageID]bool{}
		err = log.Scan(func(rec wal.Record) error {
			switch rec.Type {
			case wal.RecBegin:
				seq++
				pending[rec.Tx] = &txPages{seq: seq, imaged: imaged}
			case wal.RecPageImage, wal.RecPageDelta:
				t := pending[rec.Tx]
				if t == nil {
					seq++
					t = &txPages{seq: seq, imaged: imaged}
					pending[rec.Tx] = t
				}
				t.recs = append(t.recs, rec)
			case wal.RecPrepare:
				if t := pending[rec.Tx]; t != nil {
					t.prepared = true
					t.gtid = rec.GTID
				}
			case wal.RecCommit:
				t := pending[rec.Tx]
				if t == nil {
					return nil
				}
				delete(pending, rec.Tx)
				return apply(t)
			case wal.RecAbort:
				delete(pending, rec.Tx)
			}
			// A RecCheckpoint, which earlier versions logged just before a
			// reset, needs nothing: replaying what precedes it is idempotent.
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	// Resolve in-doubt prepared transactions by coordinator decision, in
	// begin order (deterministic; in practice at most one can exist).
	var doubt []*txPages
	for _, t := range pending {
		if t.prepared && decided[t.gtid] {
			doubt = append(doubt, t)
		}
	}
	sort.Slice(doubt, func(i, j int) bool { return doubt[i].seq < doubt[j].seq })
	for _, t := range doubt {
		if err := apply(t); err != nil {
			return nil, 0, err
		}
	}
	return redo, committed, nil
}

// recover2 writes the pages replay rebuilt into the data file, syncs it
// and only then empties the log's files, oldest segment first, so a crash
// anywhere in it leaves the log to rerun it: at worst the newer segment,
// whose pages it rebuilds alone, over a data file already holding the
// older one's. Named to avoid shadowing builtin recover.
func recover2(fsys faultfs.FS, segs []*wal.Log, dataPath string, decided map[uint64]bool) (uint64, error) {
	redo, committed, err := replay(decided, segs...)
	if err != nil {
		return 0, err
	}
	if len(redo) > 0 {
		pids := make([]oid.PageID, 0, len(redo))
		for pid := range redo {
			pids = append(pids, pid)
		}
		slices.Sort(pids)
		// Page size is the image length (every redone page began as one).
		ps := len(redo[pids[0]])
		for _, pid := range pids {
			if len(redo[pid]) != ps {
				return 0, fmt.Errorf("page %d logged with %d bytes, page %d with %d", pid, len(redo[pid]), pids[0], ps)
			}
		}
		f, err := storage.OpenFile(fsys, dataPath, ps, false)
		if err != nil {
			return 0, err
		}
		_, err = f.WriteSorted(len(pids), func(i int) (oid.PageID, []byte) { return pids[i], redo[pids[i]] })
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	for _, log := range segs {
		if err := log.Reset(); err != nil {
			return 0, err
		}
	}
	return committed, nil
}

// Store exposes the underlying store to the engine. Mutations are only
// legal inside Write, through the transaction's view.
func (m *Manager) Store() *storage.Store { return m.st }

// Stats returns activity counters, read off the shard's registry and
// its log without a lock: safe from any goroutine at any time, including
// mid-commit. A landing flight adds to Commits before it observes
// BatchSize, and Stats loads BatchSize first, so Batches never exceeds
// Commits.
func (m *Manager) Stats() Stats {
	batches := m.m.BatchSize.Snapshot().Count
	return Stats{
		Commits:       m.m.Commits.Load(),
		Aborts:        m.m.Aborts.Load(),
		Checkpoints:   m.m.CheckpointDuration.Snapshot().Count,
		RecoveredTxns: m.recovered,
		WALBytes:      m.walBytes(),
		Batches:       batches,
	}
}

// BeginRead admits a reader and returns its snapshot view, pinned at
// the epoch of the most recent commit. The caller must pass the view to
// EndRead exactly once. Readers never take the writer lock: a View is
// never stalled behind an Update or its commit fsync. Its callers are
// Read and the builder of a coordinator's cut — not a coordinator's
// readers, nor a write transaction peeking at a shard it has not joined,
// which share the cut.
func (m *Manager) BeginRead() (*storage.TxView, error) {
	m.rmu.Lock()
	if m.closed {
		m.rmu.Unlock()
		return nil, ErrClosed
	}
	m.readers.Add(1)
	m.rmu.Unlock()
	v, err := m.st.OpenReader()
	if err != nil {
		m.readers.Done()
		return nil, err
	}
	return v, nil
}

// EndRead ends a reader: the view is invalidated (ErrTxDone on further
// use) and its epoch pin released, allowing snapshot reclamation.
func (m *Manager) EndRead(v *storage.TxView) {
	v.Close()
	m.readers.Done()
}

// Read runs fn against a snapshot of the most recently committed state.
// The view is only valid until fn returns. This is a Manager used on its
// own reading; a coordinator's readers share a snapshot (cut.go) and are
// counted there.
func (m *Manager) Read(fn func(*storage.TxView) error) error {
	v, err := m.BeginRead()
	if err != nil {
		return err
	}
	m.m.ReaderPins.Inc()
	m.m.ActiveReaders.Inc()
	defer m.m.ActiveReaders.Dec()
	defer m.EndRead(v)
	return fn(v)
}

// isClosed reports whether Close has begun.
func (m *Manager) isClosed() bool {
	m.rmu.Lock()
	defer m.rmu.Unlock()
	return m.closed
}

// Write runs fn as a transaction. If fn returns nil the transaction
// commits durably; if it returns an error or panics the transaction
// rolls back (and the panic resumes). Readers admitted before the
// commit becomes durable keep their snapshot; ones admitted after see
// the new state.
//
// This is the standalone form of the one write path (joined.go):
// lockWriter, begin, fn, stage and submit under the writer mutex, then
// await off it — leading this one's flight to the log, or waiting for
// the writer that does — so the next writer runs meanwhile. The
// coordinator drives the same steps for a database's transactions and
// accounts for them at its own level; this entry point serves a Manager
// used on its own.
func (m *Manager) Write(fn func(*storage.TxView) error) error {
	start := time.Now()
	req, err := m.writeLocked(fn, start)
	if err != nil {
		return err
	}
	var txid uint64 // stays 0 for a read-only "write": nothing was logged
	if req != nil {
		if err := req.await(); err != nil {
			return fmt.Errorf("txn: commit: %w", err)
		}
		txid = uint64(req.txid)
	}
	m.observeCommit(txid, start)
	return nil
}

// writeLocked is Write's critical section: it takes the writer mutex,
// runs fn, stages and submits the transaction, and releases the mutex
// on return. It returns (nil, nil) for a transaction with nothing to
// log. Any error (from fn or staging) has already been rolled back.
func (m *Manager) writeLocked(fn func(*storage.TxView) error, start time.Time) (*commitReq, error) {
	if err := m.lockWriter(); err != nil {
		return nil, err
	}
	defer m.unlockWriter()
	txid, v, tr := m.begin()
	if m.sink != nil {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanBegin, Tx: uint64(txid)})
	}
	done := false
	defer func() {
		v.Close()
		if !done {
			// fn panicked: roll back, then let the panic continue.
			m.rollback(tr)
		}
	}()

	var req *commitReq
	err := fn(v)
	if err == nil && tr.dirty() {
		if req, err = m.stage(txid, tr, 0, false); err != nil {
			err = fmt.Errorf("txn: commit: %w", err)
		}
	}
	done = true
	if err != nil {
		m.rollback(tr)
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: uint64(txid), Dur: time.Since(start), Err: err.Error()})
		}
		return nil, err
	}
	if req == nil {
		m.m.Commits.Inc() // committed without logging anything
		return nil, nil
	}
	if m.sink != nil {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanPrepare, Tx: uint64(txid), Dur: time.Since(start)})
	}
	m.submit(req, start)
	return req, nil
}

// observeCommit records a successful commit's whole-Update latency and
// emits its publish span.
func (m *Manager) observeCommit(txid uint64, start time.Time) {
	d := time.Since(start)
	m.m.CommitLatency.ObserveDuration(d)
	m.sink.Emit(obs.SpanEvent{Kind: obs.SpanPublish, Tx: txid, Dur: d})
}

// poison permanently disables writes on this manager (reads stay
// available; the in-memory state is still consistent). The first error
// sticks.
func (m *Manager) poison(err error) { m.ioErr.CompareAndSwap(nil, &err) }

// poisoned returns the error that poisoned the manager, or nil.
func (m *Manager) poisoned() error {
	if p := m.ioErr.Load(); p != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, *p)
	}
	return nil
}

// rollback restores before-images and drops pages allocated by the
// transaction. It only ever mutates the transaction's own live page
// copies (readers hold the pre-COW snapshot objects, whose images are
// byte-identical to what this restores), so it is invisible to
// concurrent readers. The epoch does not advance.
func (m *Manager) rollback(tr *tracker) {
	m.rollbackQuiet(tr)
	m.m.Aborts.Inc()
}

// rollbackQuiet is rollback without the abort count: the coordinator
// uses it for shard-local rollbacks of a transaction it accounts for
// once at its own level (and for restarts, which are not aborts at all).
// Every rollback on a shard comes through here, under its writer mutex,
// so this is where the owner's rollback hook runs (Options.onRollback).
func (m *Manager) rollbackQuiet(tr *tracker) {
	restored := make([]*storage.Page, 0, len(tr.before))
	var forgotten []oid.PageID
	for id, bi := range tr.before {
		p, err := m.st.Get(id)
		if err != nil {
			// The page was touched, so it is dirty and resident; Get
			// cannot fail for it. Guard anyway: the hook forgets it.
			forgotten = append(forgotten, id)
			continue
		}
		p.Restore(bi.data)
		if bi.staged {
			p.SetSeg(bi.seg)
		}
		if !bi.wasDirty {
			m.st.Pool().MarkClean(p)
		}
		restored = append(restored, p)
	}
	for id := range tr.allocated {
		if _, hadBefore := tr.before[id]; !hadBefore {
			m.st.Pool().Forget(id)
			forgotten = append(forgotten, id)
		}
	}
	if err := m.st.ReloadSuper(); err != nil {
		// Superblock before-image restore cannot produce an undecodable
		// superblock unless memory was corrupted.
		panic(fmt.Sprintf("txn: rollback broke superblock: %v", err))
	}
	if m.opts.onRollback != nil {
		m.opts.onRollback(m.opts.shardID, restored, forgotten)
	}
}

// Close waits out every commit already submitted, then checkpoints and
// closes the database. If the checkpoint fails (or the manager was
// already poisoned) the WAL is deliberately NOT reset: it is then the
// only durable copy of recent commits, and the next open replays it.
// Resetting it regardless — as this method once did — silently
// discarded acked commits on a failing disk.
func (m *Manager) Close() error {
	m.rmu.Lock()
	if m.closed {
		m.rmu.Unlock()
		return nil
	}
	m.closed = true
	m.rmu.Unlock()
	if m.opts.onPublish != nil {
		// The coordinator's idle cut is registered here as a reader; it
		// must go before the wait below, also when the shard is closed
		// directly rather than through Coordinator.Close.
		m.opts.onPublish()
	}
	// Drain and stop the tracer sink on the way out (after mu is
	// released): every span source — writers, which also land flights,
	// and the checkpointer — is gone by then. A tracer stuck inside TraceSpan
	// forfeits the queue after a grace period rather than hanging Close.
	// A coordinated shard shares the coordinator's sink and leaves it
	// alone (the coordinator closes it after every shard is down).
	if m.ownSink {
		defer m.sink.Close()
	}
	// New readers are now refused; drain the in-flight ones so no
	// snapshot view outlives the store.
	m.readers.Wait()
	// Stop the background checkpointer first: it takes mu inside
	// checkpointIfDue, so it must be gone before Close camps on the lock.
	close(m.ckptStop)
	m.ckptWG.Wait()
	// Any Write that passed the closed check holds mu until it has
	// enqueued, and no more can arrive: once the shard is quiesced under
	// mu, every outstanding commit has been led to the log and no
	// checkpoint is writing back.
	m.lockWriterQuiesced()
	defer m.unlockWriter()
	var firstErr error
	if !m.opts.Storage.ReadOnly {
		firstErr = m.checkpoint(false)
	}
	for _, l := range []*wal.Log{m.old.Load(), m.spare} {
		if l != nil { // the spare, or a segment a failed checkpoint kept for recovery
			l.Close()
		}
	}
	if err := m.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := m.st.CloseNoFlush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
