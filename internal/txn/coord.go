// Coordinator: the engine seam over N independent shards, each a full
// Manager (heap + pool + WAL + commit pipeline). Object ids are routed
// to shards through an epoch-versioned shard map (storage.ShardMap):
// contiguous id ranges assigned to shards, persisted in shards.ode and
// re-assignable at runtime (Reshard), so a transaction touches exactly
// the shards its objects live on:
//
//   - a transaction that mutates one shard stages and submits on that
//     shard (joined.go) — its group-commit fsync, epoch publication and
//     counters — exactly as a standalone manager would;
//   - a transaction that mutates several shards runs presumed-abort
//     two-phase commit: every dirty shard logs a prepare record
//     (fsynced, epoch advanced but NOT published), then one decision
//     record in the coordinator log (coord.ode) is the commit point,
//     then each shard logs its local commit record and publishes.
//
// The shard mutex discipline makes recovery simple: a transaction waits
// only for shards above every shard it holds (a join below them
// try-locks, and restarts the transaction with the shards it asked for
// pre-locked if the try fails), and each dirty shard's mutex is held
// from prepare until the shard-local decide. An in-doubt
// prepare is therefore always the newest transaction in its shard log,
// and recovery commits it iff the coordinator log decided its global
// id — otherwise it is presumed aborted.
//
// Every database directory has the same shape at every shard count
// N >= 1: shards.ode (creation header plus shard-map frames), one page
// file and one WAL per physical shard, and coord.ode. With one shard
// every transaction is a single-shard commit and the decision log
// simply stays empty until a Reshard grows the set. A directory written
// before shards existed (data.ode + wal.ode alone) is adopted in place
// on its first writable open: shards.ode is written with count 1 and
// the old pair goes on serving as shard 0 under the names it has
// (DESIGN.md §12.4).
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// Directory-level file names.
const (
	// ShardsFileName is the shard metadata file: its (complete) header
	// marks a directory as a database of this layout.
	ShardsFileName = "shards.ode"
	// CoordWALFileName is the coordinator decision log for cross-shard
	// transactions.
	CoordWALFileName = "coord.ode"
)

const (
	shardsMagic   uint32 = 0x4F444553 // "ODES"
	shardsVersion uint32 = 1
	shardsMetaLen        = 12
	maxShards            = 1 << 10
)

// ShardDataFileName returns shard i's page file name.
func ShardDataFileName(i int) string { return fmt.Sprintf("data.%03d", i) }

// ShardWALFileName returns shard i's WAL file name.
func ShardWALFileName(i int) string { return fmt.Sprintf("wal.%03d", i) }

// ShardFileNames returns the names of physical shard i's page file and
// WAL. legacy0 says shard 0 is an adopted pre-shard database, which
// keeps the names it was written under (DataFileName, WALFileName).
func ShardFileNames(legacy0 bool, i int) (data, wal string) {
	if legacy0 && i == 0 {
		return DataFileName, WALFileName
	}
	return ShardDataFileName(i), ShardWALFileName(i)
}

// ErrMixedLayout reports a directory holding two candidates for shard
// 0 — a pre-shard data.ode and a data.000 — two generations of the same
// database. Nothing is guessed: the operator must remove the stale one.
var ErrMixedLayout = errors.New("txn: directory has both legacy (data.ode) and sharded (data.000) files for shard 0")

// ErrShardMismatch reports an explicit Options.Shards that contradicts
// what the directory was created with.
var ErrShardMismatch = errors.New("txn: Options.Shards does not match the directory's shard count")

// ErrPartialLayout reports a directory holding shard files (data.NNN,
// wal.NNN, coord.ode) but no shards.ode metadata — a deleted metadata
// file. Re-creating or re-adopting over the leftovers could silently
// mix two generations; the operator must remove the stale files.
var ErrPartialLayout = errors.New("txn: directory has shard files but no shards.ode metadata")

// routing is the coordinator's immutable routing bundle: the open
// physical shards and the shard map assigning id ranges to them. Every
// transaction captures one bundle pointer at begin; a pointer compare
// at join time detects concurrent map changes. The bundle is replaced
// as a whole (never mutated) inside a publication bracket
// (beginPublish), the same one that publishes the map-flipping
// transaction's epochs.
type routing struct {
	ms   []*Manager
	rmap *storage.ShardMap
}

// Coordinator owns a database directory as a set of shards plus the
// cross-shard decision log. It is the engine's only entry
// point for transactions; individual Managers are reachable through
// Shards() for stats, backup and tests.
type Coordinator struct {
	// routing is the current bundle: physical shards + shard map. It is
	// swapped atomically (in a publication bracket) when a map-changing
	// transaction commits or a reshard grows the physical shard set;
	// readers load it once and work against the snapshot.
	routing  atomic.Pointer[routing]
	opts     Options
	dir      string
	legacy0  bool // shard 0 is an adopted pre-shard database (ShardFileNames)
	readOnly bool

	// reshardMu serialises resharding against itself and against
	// exclusive checkpoints (backup). Lock order: reshardMu before any
	// shard writer mutex.
	reshardMu sync.Mutex

	// Reshard progress counters (read by ReshardProgress / metrics).
	reshardActive  atomic.Bool
	reshardTarget  atomic.Int64
	reshardChunks  atomic.Uint64
	reshardObjects atomic.Uint64
	reshardVers    atomic.Uint64

	// cmu guards the decision log, its health, the 2PC decide phase, the
	// shards.ode frame appends and mapDirty. Lock order: shard writer
	// mutexes (ascending) before cmu; a cmu holder never takes a shard
	// mutex it does not already hold.
	cmu        sync.Mutex
	clog       *wal.Log     // nil only on a read-only open that found none (it refuses every writer)
	cioErr     error        // coordinator log poisoned: no more 2PC decisions
	noReset    bool         // a shard decide failed; recovery needs the clog
	shardsFile faultfs.File // open shards.ode handle for frame appends
	mapDirty   bool         // newest map flip lives only in the clog; trimDecisionLog folds it

	// cur is the read snapshot every reader shares (cut.go) and gen the
	// generation that says whether it may still be handed out: bumped by
	// every publication — a shard's durable epoch moving, the routing
	// bundle being swapped, Close — after the change is stored and before
	// it is acknowledged. A publication that stores on several shards, or
	// swaps the bundle, also bumps it before its first store, holding it
	// odd while it stores (beginPublish, under cmu): builders pin only at
	// an even generation, so a cut never holds a 2PC transaction on one
	// shard and not another. buildHook, when a test sets it, runs in the
	// builder between its generation load and its pins; unpinHook, when a
	// test sets it, runs as each cut built since is unpinned.
	cur       atomic.Pointer[cut]
	gen       atomic.Uint64
	buildHook func()
	unpinHook func(*cut)

	// onRollback is the owner's per-shard repair (OnRollback).
	onRollback func(shard int, restored []*storage.Page, forgotten []oid.PageID)

	// cm is the coordinator-level registry (whole-transaction latency,
	// cross-shard batch sizes, decision-log fsyncs). sink is the tracer
	// sink shared by every shard; the coordinator owns it.
	cm   *obs.Metrics
	sink *obs.Sink

	gtidSeq atomic.Uint64 // global txn ids; unique within one clog lifetime
	ctxSeq  atomic.Uint64 // span ids for coordinator-level trace events

	// Coordinator-level activity: empty and cross-shard transactions
	// (single-shard ones count on their shard), and checkpoints, which
	// cm.CheckpointDuration counts. Same seqlock discipline as Manager so
	// Stats sums stay torn-free pair-wise.
	commits   atomic.Uint64
	batches   atomic.Uint64
	aborts    atomic.Uint64
	statsMu   sync.Mutex
	statsSeq  atomic.Uint64
	clogBytes atomic.Int64

	closed atomic.Bool
}

// ms returns the current physical shard set; rmap the current map. Both
// are snapshots — a concurrent reshard swaps the bundle rather than
// mutating it.
func (c *Coordinator) ms() []*Manager          { return c.routing.Load().ms }
func (c *Coordinator) rmap() *storage.ShardMap { return c.routing.Load().rmap }

// OpenCoordinator opens the database in dir, creating it when the
// directory holds none. Options.Shards: 0 takes whatever an existing
// directory has (GOMAXPROCS for a fresh one); an explicit value must
// match an existing directory's logical count — Reshard is how that
// changes. A pre-shard directory is one shard; its first writable open
// adopts it by writing shards.ode, and a read-only open of one that was
// never adopted writes nothing.
func OpenCoordinator(dir string, opts Options) (*Coordinator, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("txn: Shards=%d is negative", opts.Shards)
	}
	fsys := opts.fsys()
	sharded, legacy0, err := DetectLayout(fsys, dir)
	if err != nil {
		return nil, err
	}
	switch {
	case sharded:
	case legacy0:
		if opts.Shards > 1 {
			return nil, fmt.Errorf("%w: directory has 1, Shards=%d requested", ErrShardMismatch, opts.Shards)
		}
		if !opts.Storage.ReadOnly {
			// Adoption is this one file: a cut before it is durable leaves
			// the directory as it was, a cut after leaves an ordinary
			// one-shard database (openSharded creates a missing coord.ode;
			// a pre-shard log holds no prepares to find decisions for).
			if err := writeShardsMeta(fsys, dir, 1); err != nil {
				return nil, err
			}
			sharded = true
		}
	default:
		if opts.Storage.ReadOnly {
			return nil, fmt.Errorf("txn: no database at %s", dir)
		}
		n := opts.Shards
		if n == 0 {
			if n = runtime.GOMAXPROCS(0); n < 1 {
				n = 1
			}
		}
		if n > maxShards {
			return nil, fmt.Errorf("txn: Shards=%d exceeds the maximum of %d", n, maxShards)
		}
		return createSharded(fsys, dir, opts, n)
	}
	return openSharded(fsys, dir, opts, sharded, legacy0)
}

// DetectLayout classifies dir without opening anything: sharded says a
// complete shards.ode header is there, legacy0 that shard 0 lives in
// the pre-shard files (ShardFileNames); neither means no database. A
// shards.ode shorter than its header is a create or an adoption cut
// short before the header was durable — it is written, synced and its
// directory entry synced before any other file is touched — and counts
// as absent, so the next writable open writes it again.
func DetectLayout(fsys faultfs.FS, dir string) (sharded, legacy0 bool, err error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	size := func(name string) int64 {
		n, serr := fsys.Stat(filepath.Join(dir, name))
		if serr == nil {
			return n
		}
		if !errors.Is(serr, fs.ErrNotExist) && err == nil {
			err = serr
		}
		return -1
	}
	sharded = size(ShardsFileName) >= shardsMetaLen
	legacy0 = size(DataFileName) >= 0
	mixed := legacy0 && size(ShardDataFileName(0)) >= 0
	if err != nil {
		return false, false, err
	}
	if mixed {
		return false, false, fmt.Errorf("%w (%s)", ErrMixedLayout, dir)
	}
	if !sharded {
		// Shard files without their metadata: re-creating or re-adopting
		// over them would mix generations, so fail loudly instead.
		if name, found, err := findShardFile(fsys, dir); err != nil {
			return false, false, err
		} else if found {
			return false, false, fmt.Errorf("%w (%s holds %s)", ErrPartialLayout, dir, name)
		}
	}
	return sharded, legacy0, nil
}

// findShardFile reports the first sharded-layout file (data.NNN,
// wal.NNN or coord.ode) in dir. A missing directory is simply empty.
func findShardFile(fsys faultfs.FS, dir string) (string, bool, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", false, nil
		}
		return "", false, err
	}
	for _, name := range names {
		if name == CoordWALFileName || isShardFileName(name) {
			return name, true, nil
		}
	}
	return "", false, nil
}

// isShardFileName reports whether name matches the per-shard file
// pattern data.NNN / wal.NNN (three decimal digits).
func isShardFileName(name string) bool {
	var prefix string
	switch {
	case strings.HasPrefix(name, "data."):
		prefix = "data."
	case strings.HasPrefix(name, "wal."):
		prefix = "wal."
	default:
		return false
	}
	suffix := name[len(prefix):]
	if len(suffix) != 3 {
		return false
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ShardsState is the decoded contents of shards.ode: the creation-time
// shard count from the fixed header, plus the physical shard count and
// the shard map from the newest valid frame (creation defaults when no
// frame has been appended yet).
type ShardsState struct {
	// Created is the shard count the directory was created with (the
	// immutable 12-byte header; also the frame-less default for the
	// other fields).
	Created int
	// Phys is the number of physical shards (data.NNN/wal.NNN pairs) on
	// disk. It only ever grows: a merge empties shards but keeps them.
	Phys int
	// Map is the persisted shard map. The effective map at open time may
	// be newer if undecided flips live in the coordinator log.
	Map *storage.ShardMap
	// frameEnd is the file offset just past the last valid frame; a
	// writable open truncates any torn tail there so later appends scan.
	frameEnd int64
}

// ReadShardsState reads shards.ode: the creation header plus the newest
// valid map frame. Exported for odedump.
func ReadShardsState(fsys faultfs.FS, dir string) (*ShardsState, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	path := filepath.Join(dir, ShardsFileName)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", path, err)
	}
	defer f.Close()
	return readShardsState(f, path)
}

// readShardsState parses an open shards.ode: the 12-byte creation
// header followed by zero or more length+CRC framed map images
// (appended by grow/shrink/fold). The newest VALID frame wins; a torn
// or corrupt tail falls back to the previous frame, exactly like WAL
// recovery. There is no rename on the faultfs seam, so the file is
// append-only: the header is written once at create and never rewritten
// (no in-place torn-write risk), and every later state change is a new
// frame.
func readShardsState(f faultfs.File, path string) (*ShardsState, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("txn: %s: %w", path, err)
	}
	if size < shardsMetaLen {
		return nil, fmt.Errorf("txn: %s: truncated metadata (%d bytes)", path, size)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("txn: %s: %w", path, err)
	}
	if m := binary.BigEndian.Uint32(buf[0:4]); m != shardsMagic {
		return nil, fmt.Errorf("txn: %s: bad magic %#x", path, m)
	}
	if v := binary.BigEndian.Uint32(buf[4:8]); v != shardsVersion {
		return nil, fmt.Errorf("txn: %s: unsupported version %d", path, v)
	}
	n := int(binary.BigEndian.Uint32(buf[8:12]))
	if n < 1 || n > maxShards {
		return nil, fmt.Errorf("txn: %s: implausible shard count %d", path, n)
	}
	st := &ShardsState{Created: n, Phys: n, Map: storage.NewShardMap(n), frameEnd: shardsMetaLen}
	off := int64(shardsMetaLen)
	for {
		if off+8 > size {
			break // torn or absent frame header
		}
		l := int64(binary.BigEndian.Uint32(buf[off:]))
		sum := binary.BigEndian.Uint32(buf[off+4:])
		if l < 4 || off+8+l > size {
			break // torn payload
		}
		payload := buf[off+8 : off+8+l]
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupt frame: keep the previous state
		}
		phys := int(binary.BigEndian.Uint32(payload[0:4]))
		m, err := storage.DecodeShardMap(payload[4:])
		if err != nil {
			break
		}
		if phys < st.Phys || phys > maxShards {
			break // physical count never shrinks; implausible frame
		}
		ok := m.N() >= 1 && m.N() <= phys
		for _, r := range m.Ranges() {
			if r.Shard >= phys {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		st.Phys, st.Map = phys, m
		off += 8 + l
		st.frameEnd = off
	}
	return st, nil
}

// crcTable is the Castagnoli table shards.ode frames are checksummed
// with.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendShardsFrame appends one (physN, map) frame to the open
// shards.ode handle and fsyncs it. Caller holds cmu.
func appendShardsFrame(f faultfs.File, phys int, m *storage.ShardMap) error {
	image := m.Encode()
	payload := make([]byte, 4+len(image))
	binary.BigEndian.PutUint32(payload[0:4], uint32(phys))
	copy(payload[4:], image)
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)
	end, err := f.Size()
	if err != nil {
		return fmt.Errorf("txn: %s: %w", ShardsFileName, err)
	}
	if _, err := f.WriteAt(frame, end); err != nil {
		return fmt.Errorf("txn: %s: %w", ShardsFileName, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("txn: sync %s: %w", ShardsFileName, err)
	}
	return nil
}

// writeShardsMeta makes dir a database of n shards: the header — its
// contents AND its directory entry — is durable on return, before the
// caller creates any file the header accounts for, so a directory is
// recognisably a database or recognisably not, never ambiguous. The
// content fsync alone is not enough: a crash could durably hold shard
// files whose metadata file has no directory entry.
func writeShardsMeta(fsys faultfs.FS, dir string, n int) error {
	path := filepath.Join(dir, ShardsFileName)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("txn: create %s: %w", path, err)
	}
	var buf [shardsMetaLen]byte
	binary.BigEndian.PutUint32(buf[0:4], shardsMagic)
	binary.BigEndian.PutUint32(buf[4:8], shardsVersion)
	binary.BigEndian.PutUint32(buf[8:12], uint32(n))
	if _, err := f.WriteAt(buf[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("txn: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("txn: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("txn: sync %s: %w", dir, err)
	}
	return nil
}

// shardOpts derives shard i's Options: per-shard file names, the shared
// sink, the publication hook, and the coordinator-log decision set for
// recovery.
func (c *Coordinator) shardOpts(i int, decided map[uint64]bool) Options {
	so := c.opts
	so.dataFile, so.walFile = ShardFileNames(c.legacy0, i)
	so.decided = decided
	so.sink = c.sink
	so.coordinated = true
	so.shardID = i
	so.onPublish = c.published
	so.onRollback = c.rolledBack
	return so
}

// OnRollback registers fn to run whenever a shard rolls a transaction
// back — an abort, a restart, a failed prepare, a failed commit batch —
// with the shard's slot, under its writer mutex, so state the caller
// keeps per shard and uses only under that mutex can be repaired where
// the rollback happens. restored holds the live pages the rollback put
// back to their before-images; forgotten names the pages it dropped
// from the pool, the ones the transaction had added to the file. Set it
// before the first write.
func (c *Coordinator) OnRollback(fn func(shard int, restored []*storage.Page, forgotten []oid.PageID)) {
	c.onRollback = fn
}

// rolledBack is every shard's rollback hook (Options.onRollback).
func (c *Coordinator) rolledBack(shard int, restored []*storage.Page, forgotten []oid.PageID) {
	if c.onRollback != nil {
		c.onRollback(shard, restored, forgotten)
	}
}

// newShardedCoordinator assembles the coordinator shell (registry,
// sink) shards are then attached to. The routing bundle is stored by
// the caller once the shards exist.
func newShardedCoordinator(dir string, opts Options, legacy0 bool) *Coordinator {
	c := &Coordinator{
		opts:     opts,
		dir:      dir,
		legacy0:  legacy0,
		readOnly: opts.Storage.ReadOnly,
		cm:       obs.New(),
	}
	c.sink = obs.NewSink(opts.Tracer, obs.DefaultTracerBuffer, &c.cm.TracerDropped)
	return c
}

func createSharded(fsys faultfs.FS, dir string, opts Options, n int) (_ *Coordinator, err error) {
	opts.Storage.FS = fsys
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: mkdir %s: %w", dir, err)
	}
	if err := writeShardsMeta(fsys, dir, n); err != nil {
		return nil, err
	}
	c := newShardedCoordinator(dir, opts, false)
	var ms []*Manager
	var opened []io.Closer
	defer func() {
		if err != nil {
			c.abandon(opened)
		}
	}()
	for i := 0; i < n; i++ {
		m, err := Create(dir, c.shardOpts(i, nil))
		if err != nil {
			return nil, fmt.Errorf("txn: create shard %d: %w", i, err)
		}
		ms, opened = append(ms, m), append(opened, m)
	}
	clog, err := wal.OpenFS(fsys, filepath.Join(dir, CoordWALFileName))
	if err != nil {
		return nil, err
	}
	opened = append(opened, clog)
	c.attachClog(clog)
	// Make the shard files' and decision log's directory entries durable
	// before create returns: a commit fsyncs WAL contents, which proves
	// nothing if the WAL's directory entry can vanish in a power cut.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("txn: sync %s: %w", dir, err)
	}
	// Keep shards.ode open for map-frame appends (grow, fold, reshard).
	if c.shardsFile, err = fsys.OpenFile(filepath.Join(dir, ShardsFileName), os.O_RDWR, 0); err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", ShardsFileName, err)
	}
	c.routing.Store(&routing{ms: ms, rmap: storage.NewShardMap(n)})
	return c, nil
}

// mapOverlay is a shard-map image logged alongside a 2PC decision: a
// reshard transaction's RecShardMap record, effective iff the same gtid
// has a RecCommit decision (the flip and the data move share the
// decision record as their single commit point).
type mapOverlay struct {
	gtid  uint64
	image []byte
}

// scanDecisions reads the coordinator log's decision records into the
// set of globally-committed transaction ids, plus any shard-map overlay
// records. Only commit decisions are recorded (presumed abort); a torn
// or corrupt tail ends the scan at the last valid record exactly like
// WAL recovery does.
func scanDecisions(clog *wal.Log) (map[uint64]bool, []mapOverlay, error) {
	decided := map[uint64]bool{}
	var overlays []mapOverlay
	if err := clog.Scan(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCommit:
			decided[uint64(rec.Tx)] = true
		case wal.RecShardMap:
			overlays = append(overlays, mapOverlay{
				gtid:  uint64(rec.Tx),
				image: append([]byte(nil), rec.Data...),
			})
		}
		return nil
	}); err != nil {
		return nil, nil, fmt.Errorf("txn: coordinator log: %w", err)
	}
	return decided, overlays, nil
}

// openSharded opens an existing directory. sharded is false only for a
// read-only open of a pre-shard directory that was never adopted: the
// same coordinator is built from the state adoption would have written
// — one shard, the identity map — and nothing is created.
func openSharded(fsys faultfs.FS, dir string, opts Options, sharded, legacy0 bool) (_ *Coordinator, err error) {
	opts.Storage.FS = fsys
	ro := opts.Storage.ReadOnly
	c := newShardedCoordinator(dir, opts, legacy0)
	var opened []io.Closer
	defer func() {
		if err != nil {
			c.abandon(opened)
		}
	}()
	// Read the persisted routing state first: physical shard count, the
	// newest folded map frame.
	st := &ShardsState{Created: 1, Phys: 1, Map: storage.NewShardMap(1)}
	if sharded {
		flags := os.O_RDWR
		if ro {
			flags = os.O_RDONLY
		}
		sf, err := fsys.OpenFile(filepath.Join(dir, ShardsFileName), flags, 0)
		if err != nil {
			return nil, fmt.Errorf("txn: open %s: %w", ShardsFileName, err)
		}
		c.shardsFile, opened = sf, append(opened, sf)
		if st, err = readShardsState(sf, ShardsFileName); err != nil {
			return nil, err
		}
		if !ro {
			// Truncate a torn frame tail so later appends land where the
			// scanner stops reading.
			if size, err := sf.Size(); err != nil {
				return nil, fmt.Errorf("txn: %s: %w", ShardsFileName, err)
			} else if size > st.frameEnd {
				if err := sf.Truncate(st.frameEnd); err != nil {
					return nil, fmt.Errorf("txn: truncate %s: %w", ShardsFileName, err)
				}
			}
		}
	}
	// The decision log is read next: shard recovery consults it for
	// in-doubt prepared transactions, and the map resolution below
	// consults it for decided-but-unfolded flips. A directory adopted a
	// moment ago (or whose adoption was cut short after shards.ode) has
	// none yet: a writable open creates it, a read-only open goes
	// without — a log that never existed decided nothing.
	decided, overlays := map[uint64]bool{}, []mapOverlay(nil)
	coordPath := filepath.Join(dir, CoordWALFileName)
	_, statErr := fsys.Stat(coordPath)
	if statErr != nil && !errors.Is(statErr, fs.ErrNotExist) {
		return nil, statErr
	}
	if !ro || statErr == nil {
		clog, err := wal.OpenFS(fsys, coordPath)
		if err != nil {
			return nil, err
		}
		opened = append(opened, clog)
		c.attachClog(clog)
		if statErr != nil {
			if err := fsys.SyncDir(dir); err != nil {
				return nil, fmt.Errorf("txn: sync %s: %w", dir, err)
			}
		}
		if decided, overlays, err = scanDecisions(clog); err != nil {
			return nil, err
		}
	}
	// Effective map: the highest epoch wins between the folded frame and
	// any DECIDED overlay. An overlay without a decision is a reshard
	// chunk that prepared but never committed — presumed aborted, its
	// data never published, its map image void.
	rmap, phys := st.Map, st.Phys
	overlayWon := false
	for _, ov := range overlays {
		if !decided[ov.gtid] {
			continue
		}
		m, err := storage.DecodeShardMap(ov.image)
		if err != nil {
			return nil, fmt.Errorf("txn: coordinator log shard-map overlay: %w", err)
		}
		if m.Epoch() <= rmap.Epoch() {
			continue
		}
		// A grow folds its frame (new physical count) before any chunk
		// references the new shards, so a decided overlay can never route
		// beyond the persisted physical set.
		for _, r := range m.Ranges() {
			if r.Shard >= phys {
				return nil, fmt.Errorf("txn: shard-map overlay (epoch %d) routes to shard %d beyond the %d physical shards", m.Epoch(), r.Shard, phys)
			}
		}
		rmap, overlayWon = m, true
	}
	if opts.Shards != 0 && opts.Shards != rmap.N() {
		return nil, fmt.Errorf("%w: directory has %d, Shards=%d requested", ErrShardMismatch, rmap.N(), opts.Shards)
	}
	// Shard recovery is independent (disjoint files, the shared decided
	// map is read-only here), so the WALs replay in parallel. Every
	// PHYSICAL shard opens — emptied (merged-away) shards still hold
	// their counters and must accept future re-assignments.
	ms := make([]*Manager, phys)
	errs := make([]error, phys)
	var wg sync.WaitGroup
	for i := 0; i < phys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = Open(dir, c.shardOpts(i, decided))
		}(i)
	}
	wg.Wait()
	for i, m := range ms {
		if errs[i] == nil {
			opened = append(opened, m)
		} else if err == nil {
			err = fmt.Errorf("txn: open shard %d: %w", i, errs[i])
		}
	}
	if err != nil {
		return nil, err
	}
	// Every shard's recovery ran and reset its log; no prepare records
	// remain, so the decisions are no longer needed. A decided map
	// overlay that won is folded on the way.
	c.routing.Store(&routing{ms: ms, rmap: rmap})
	if !ro {
		c.mapDirty = overlayWon
		if err := c.trimDecisionLog(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Coordinator) attachClog(clog *wal.Log) {
	clog.SetMetrics(c.cm)
	c.clog = clog
	c.clogBytes.Store(clog.Size())
}

// abandon closes what an open or create had opened — shards, decision
// log, shards.ode — before it failed, and the sink.
func (c *Coordinator) abandon(opened []io.Closer) {
	for _, f := range opened {
		f.Close()
	}
	c.sink.Close()
}

// Map returns the current shard map snapshot.
func (c *Coordinator) Map() *storage.ShardMap { return c.rmap() }

// N returns the LOGICAL shard count — what the map routes to and what
// DB.Shards reports. After a merge it is smaller than NumShards.
func (c *Coordinator) N() int { return c.rmap().N() }

// NumShards returns the PHYSICAL shard count: open data.NNN/wal.NNN
// pairs. It only ever grows; a merge empties shards but keeps them.
func (c *Coordinator) NumShards() int { return len(c.ms()) }

// ReadOnly reports whether the store was opened read-only.
func (c *Coordinator) ReadOnly() bool { return c.readOnly }

// Shards exposes the per-shard managers (stats, backup, tests). The
// slice must not be mutated.
func (c *Coordinator) Shards() []*Manager { return c.ms() }

// DataFiles names the files that ARE the database once every shard is
// checkpointed — shards.ode and each physical shard's page file — which
// is what a backup copies.
func (c *Coordinator) DataFiles() []string {
	files := []string{ShardsFileName}
	for i := range c.ms() {
		data, _ := ShardFileNames(c.legacy0, i)
		files = append(files, data)
	}
	return files
}

// Metrics returns the coordinator's registry: what belongs to the
// database and to no shard in particular.
func (c *Coordinator) Metrics() *obs.Metrics { return c.cm }

func (c *Coordinator) addCommitsBatches(commits, batches uint64) {
	c.statsMu.Lock()
	c.statsSeq.Add(1)
	c.batches.Add(batches)
	c.commits.Add(commits)
	c.statsSeq.Add(1)
	c.statsMu.Unlock()
}

func (c *Coordinator) observeCommit(span uint64, start time.Time) {
	d := time.Since(start)
	c.cm.CommitLatency.ObserveDuration(d)
	c.sink.Emit(obs.SpanEvent{Kind: obs.SpanPublish, Tx: span, Dur: d})
}

func (c *Coordinator) poisonCoord(err error) {
	if c.cioErr == nil {
		c.cioErr = err
	}
	c.noReset = true
}

// Stats sums coordinator-level activity (empty and cross-shard
// transactions, coordinator checkpoints) with every shard's. WALBytes
// counts one file header once plus each log's payload, so a freshly
// checkpointed database reports the same figure regardless of N.
func (c *Coordinator) Stats() Stats {
	var commits, batches uint64
	for {
		s1 := c.statsSeq.Load()
		if s1&1 == 0 {
			commits = c.commits.Load()
			batches = c.batches.Load()
			if c.statsSeq.Load() == s1 {
				break
			}
		}
		runtime.Gosched()
	}
	out := Stats{
		Commits:     commits,
		Batches:     batches,
		Aborts:      c.aborts.Load(),
		Checkpoints: c.cm.CheckpointDuration.Snapshot().Count,
		WALBytes:    wal.HeaderSize,
	}
	for _, m := range c.ms() {
		s := m.Stats()
		out.Commits += s.Commits
		out.Aborts += s.Aborts
		out.Batches += s.Batches
		out.Checkpoints += s.Checkpoints
		out.RecoveredTxns += s.RecoveredTxns
		out.WALBytes += s.WALBytes - wal.HeaderSize
	}
	if c.clog != nil {
		out.WALBytes += c.clogBytes.Load() - wal.HeaderSize
	}
	return out
}

// restart ends a write attempt early, for one of two causes: a
// descending join whose try-lock failed, or a routing bundle swapped
// since the attempt began (a reshard chunk's map flip committed). Join
// and View record it on the transaction and raise it as a panic
// (WriteTx.end), so it unwinds through a closure or a trigger handler
// that would swallow an error; runFn is the one place it is recovered,
// and no closure ever sees it — and one that recovers it anyway still
// cannot commit the attempt. relock is what the rerun pre-locks,
// ascending: the shards the attempt held plus the one it wanted — nil
// after a routing restart, which reruns lazily.
type restart struct {
	routing bool
	relock  []int
}

// WriteTx is a coordinated write transaction's handle: one live view
// per joined shard, and for shards it only reads, the readers' cut,
// referenced from the first such read to the end of the attempt. It is
// only valid inside the fn passed to Write.
type WriteTx struct {
	c         *Coordinator
	rt        *routing // bundle pinned at begin; joins validate against it
	newMap    *storage.ShardMap
	views     []*storage.TxView
	trs       []*tracker
	txids     []oid.TxID
	epochs    []uint64
	peek      *ReadTx // nil until the first View of an unjoined shard
	joined    []bool
	maxJoined int
	ended     *restart // set once the attempt must restart
}

// NumShards returns the physical shard count the transaction can join.
func (w *WriteTx) NumShards() int { return len(w.rt.ms) }

// Map returns the shard map snapshot pinned at begin. Every id the
// transaction touches routes through this snapshot; a concurrent map
// change restarts the transaction at its next Join or View.
func (w *WriteTx) Map() *storage.ShardMap { return w.rt.rmap }

// SetShardMap stages a replacement shard map to commit atomically with
// the transaction's data: the image rides the decision record, and the
// routing bundle is swapped in the same publication bracket that
// publishes the dirty shards' epochs. Reshard chunks use it to flip a
// migrated range's assignment together with the data move.
func (w *WriteTx) SetShardMap(m *storage.ShardMap) { w.newMap = m }

// Joined reports whether shard s is joined (its View is live).
func (w *WriteTx) Joined(s int) bool { return w.joined[s] }

// end ends the attempt with rs.
func (w *WriteTx) end(rs restart) {
	w.ended = &rs
	panic(rs)
}

// View returns a view of shard s: the live writer view when the shard
// is joined, otherwise a handle on the shard's snapshot in the readers'
// cut, which the first such call takes a reference on for the rest of
// the attempt, so every peek of one attempt is of one instant. Mutating
// intent must go through Join. A cut pinned under another routing
// bundle than the attempt's may hold a range the attempt routes
// elsewhere: the attempt restarts.
func (w *WriteTx) View(s int) (*storage.TxView, error) {
	if w.joined[s] {
		return w.views[s], nil
	}
	if w.peek == nil {
		peek := new(ReadTx)
		if err := peek.begin(w.c); err != nil {
			return nil, err
		}
		if peek.ct.rt != w.rt {
			peek.end()
			w.end(restart{routing: true})
		}
		w.peek = peek
	}
	return w.peek.View(s), nil
}

// Join locks shard s for writing and returns its live view. A join
// above every shard held waits for the writer mutex; one below only
// tries it, and restarts the attempt if the mutex is taken — so a
// transaction only ever waits for a shard above all it holds, and no
// wait-for cycle can form. A snapshot handle View handed out for s
// stays a view of the cut: callers must re-derive any state (tree
// handles) from the returned live view.
func (w *WriteTx) Join(s int) (*storage.TxView, error) {
	if w.joined[s] {
		return w.views[s], nil
	}
	m := w.rt.ms[s]
	if s < w.maxJoined {
		ok, err := m.tryLockWriter()
		if err != nil {
			return nil, err
		}
		if !ok {
			relock := []int{s}
			for h, held := range w.joined {
				if held {
					relock = append(relock, h)
				}
			}
			slices.Sort(relock)
			w.end(restart{relock: relock})
		}
		w.c.cm.TryLockJoins.Inc()
	} else if err := m.lockWriter(); err != nil {
		return nil, err
	}
	// Routing may have moved while we waited for the writer mutex (a
	// reshard chunk committed and swapped the bundle). Holding s's mutex
	// freezes any FURTHER flip that involves s, so a successful check
	// here stays valid for the rest of the transaction's use of s.
	if w.c.routing.Load() != w.rt {
		m.unlockWriter()
		w.end(restart{routing: true})
	}
	txid, v, tr := m.begin()
	w.views[s] = v
	w.trs[s] = tr
	w.txids[s] = txid
	w.joined[s] = true
	w.maxJoined = max(w.maxJoined, s)
	return v, nil
}

// release closes every joined view and unlocks the shards, rolling
// each back first when rollback is set, and gives the cut back; either
// way the attempt then holds nothing. A rollback resets what the owner
// keeps per shard there and then, under the shard's mutex
// (Manager.rollbackQuiet).
func (w *WriteTx) release(rollback bool) {
	for s := len(w.joined) - 1; s >= 0; s-- {
		if !w.joined[s] {
			continue
		}
		w.joined[s] = false
		w.views[s].Close()
		if rollback {
			w.rt.ms[s].rollbackQuiet(w.trs[s])
		}
		w.rt.ms[s].unlockWriter()
	}
	if w.peek != nil {
		w.peek.end()
		w.peek = nil
	}
}

// Write runs fn as one transaction across however many shards it
// touches. See Manager.Write for the single-manager contract; the
// coordinated additions are the restart (Join, View) and two-phase
// commit for transactions that dirtied more than one shard. A restart
// rolls the attempt back quietly — nothing about fn failed — and runs
// fn again: after a lost try-lock with the shards it asked for
// pre-locked, so each such rerun holds one shard more than the last
// and there is at most one per shard; after a routing change lazily,
// against the new map.
func (c *Coordinator) Write(fn func(*WriteTx) error) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.readOnly {
		return ErrReadOnly
	}
	start := time.Now()
	span := c.ctxSeq.Add(1)
	c.sink.Emit(obs.SpanEvent{Kind: obs.SpanBegin, Tx: span})
	var relock []int
	for {
		rs, err := c.writeAttempt(fn, span, start, relock)
		if rs == nil {
			return err
		}
		if rs.routing {
			c.cm.RestartsRouting.Inc()
		} else {
			c.cm.RestartsJoinOrder.Inc()
		}
		relock = rs.relock
	}
}

func (c *Coordinator) newWriteTx() *WriteTx {
	rt := c.routing.Load()
	n := len(rt.ms)
	return &WriteTx{
		c:         c,
		rt:        rt,
		views:     make([]*storage.TxView, n),
		trs:       make([]*tracker, n),
		txids:     make([]oid.TxID, n),
		epochs:    make([]uint64, n),
		joined:    make([]bool, n),
		maxJoined: -1,
	}
}

// writeAttempt runs fn once, after joining the shards in relock
// (ascending, so every wait is for a shard above all those held). A
// restart comes back as rs, its attempt rolled back.
func (c *Coordinator) writeAttempt(fn func(*WriteTx) error, span uint64, start time.Time, relock []int) (rs *restart, err error) {
	wtx := c.newWriteTx()
	err = c.runFn(wtx, fn, relock)
	switch {
	case wtx.ended != nil:
		wtx.release(true)
		return wtx.ended, nil
	case err != nil:
		wtx.release(true)
		c.abortObserve(span, start, err)
		return nil, err
	}
	return nil, c.commitTx(wtx, span, start)
}

// runFn joins the relock shards and invokes fn. It is where a restart's
// unwind ends, and where any other panic rolls the attempt back before
// it is re-raised.
func (c *Coordinator) runFn(wtx *WriteTx, fn func(*WriteTx) error, relock []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(restart); ok {
				return // wtx.ended says so
			}
			wtx.release(true)
			c.aborts.Add(1)
			panic(r)
		}
	}()
	for _, s := range relock {
		if _, err := wtx.Join(s); err != nil {
			return err
		}
	}
	return fn(wtx)
}

// commitTx commits a transaction whose fn returned nil: nothing dirty,
// one dirty shard (that shard's own pipeline), or several (2PC).
func (c *Coordinator) commitTx(wtx *WriteTx, span uint64, start time.Time) error {
	var dirty []int // ascending: 2PC prepares and decides in shard order
	for s, joined := range wtx.joined {
		if joined && wtx.trs[s].dirty() {
			dirty = append(dirty, s)
		}
	}
	// A staged shard map rides the decision record, so a map-changing
	// transaction always commits through 2PC even when it dirtied one
	// shard or none (an empty migration chunk still flips its range).
	if wtx.newMap != nil {
		return c.commit2PC(wtx, dirty, span, start)
	}
	switch len(dirty) {
	case 0:
		wtx.release(false)
		c.addCommitsBatches(1, 0)
		c.observeCommit(span, start)
		return nil
	case 1:
		return c.commitSingle(wtx, dirty[0], span, start)
	default:
		return c.commit2PC(wtx, dirty, span, start)
	}
}

func (c *Coordinator) abortObserve(span uint64, start time.Time, err error) {
	c.aborts.Add(1)
	if c.sink != nil {
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: span, Dur: time.Since(start), Err: err.Error()})
	}
}

// commitSingle commits a transaction that dirtied exactly one shard on
// that shard: stage, submit, release every joined shard, then wait for
// the acknowledgement off-lock, so the next writer runs while this
// commit's batch is fsynced. Commit counters and batch/fsync accounting
// land on the shard, exactly as a standalone commit's would.
func (c *Coordinator) commitSingle(wtx *WriteTx, s int, span uint64, start time.Time) error {
	m := wtx.rt.ms[s]
	req, err := m.stage(wtx.txids[s], wtx.trs[s], 0, false)
	if err != nil {
		wtx.release(true)
		c.abortObserve(span, start, err)
		return fmt.Errorf("txn: commit: %w", err)
	}
	if c.sink != nil {
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanPrepare, Tx: span, Dur: time.Since(start)})
	}
	m.submit(req, start)
	wtx.release(false)
	if err := req.await(); err != nil {
		// Whoever failed the commit — the shard's commit pipeline
		// (failFlights) or submit itself — rolled it back and counted the abort on the
		// shard before this ack.
		return fmt.Errorf("txn: commit: %w", err)
	}
	c.observeCommit(span, start)
	return nil
}

// commit2PC is presumed-abort two-phase commit over the dirty shards
// (ascending). Phase 1 makes each shard's prepare record durable; the
// decision record in the coordinator log is the commit point; phase 3
// writes each shard's local commit record and publishes its epoch. The
// shard mutexes are held throughout, so an in-doubt prepare is always
// the newest transaction in its shard log.
func (c *Coordinator) commit2PC(wtx *WriteTx, dirty []int, span uint64, start time.Time) error {
	gtid := c.gtidSeq.Add(1)
	var perr error
	for _, s := range dirty {
		m := wtx.rt.ms[s]
		req, err := m.stage(wtx.txids[s], wtx.trs[s], gtid, true)
		if err == nil {
			m.submit(req, start)
			// Await while still holding the shard mutex: the prepare stays
			// the newest transaction in the shard's log, and if its flight
			// or an older one fails, the pipeline rolls it back — this
			// shard's part first, then the commits ahead of it — under our
			// hold, before any other writer can get in.
			if err = req.await(); err != nil {
				// Already undone on this shard (await's contract): leave
				// release nothing to restore here a second time.
				wtx.trs[s] = newTracker()
			}
		}
		if err != nil {
			perr = err
			break
		}
		wtx.epochs[s] = req.epoch
	}
	if perr != nil {
		// Presumed abort: no decision record exists, so the durable
		// prepare records on the shards that got one are dead weight a
		// future recovery ignores.
		wtx.release(true)
		c.abortObserve(span, start, perr)
		return fmt.Errorf("txn: commit: %w", perr)
	}
	if c.sink != nil {
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanPrepare, Tx: span, Batch: len(dirty), Dur: time.Since(start)})
	}

	// Phase 2: the decision record is the commit point. A staged shard
	// map is logged immediately before it under the same gtid — recovery
	// applies the overlay iff the decision exists, so the flip and the
	// data move share one atomic commit point.
	c.cmu.Lock()
	derr := c.cioErr
	if derr != nil {
		derr = fmt.Errorf("%w (cause: %v)", ErrPoisoned, derr)
	} else {
		startLSN := c.clog.End()
		if wtx.newMap != nil {
			_, derr = c.clog.AppendShardMap(oid.TxID(gtid), wtx.newMap.Encode())
		}
		if derr == nil {
			_, derr = c.clog.AppendCommit(oid.TxID(gtid))
		}
		if derr == nil && !c.opts.NoSync {
			derr = c.clog.Sync()
		}
		if derr != nil {
			// The decision must not survive: once we report this commit
			// failed, recovery finding the record would resurrect it.
			if terr := c.clog.TruncateTo(startLSN); terr != nil {
				c.poisonCoord(fmt.Errorf("cannot erase failed decision from coordinator log: %w", terr))
			}
		}
		c.clogBytes.Store(c.clog.Size())
	}
	if derr != nil {
		c.cmu.Unlock()
		wtx.release(true)
		c.abortObserve(span, start, derr)
		return fmt.Errorf("txn: commit: %w", derr)
	}

	// Phase 3: shard-local decides, still under cmu so a concurrent
	// checkpoint cannot reset the decision log while any shard still
	// needs its record. The decide records (with their fsyncs) are
	// written first, outside the publication bracket; then every dirty
	// shard's epoch is published inside it as one step, so a cross-shard
	// reader (a cut is pinned only at an even generation, outside every
	// bracket) sees this transaction on all of its shards or on none. A
	// decide failure
	// poisons that shard but the commit IS durable (prepare record +
	// decision); the remaining shards — and the poisoned one — still
	// publish.
	var decErr error
	for _, s := range dirty {
		if err := wtx.rt.ms[s].decideJoinedLog(wtx.txids[s]); err != nil && decErr == nil {
			decErr = err
		}
	}
	c.beginPublish()
	for _, s := range dirty {
		wtx.rt.ms[s].publish(wtx.epochs[s])
	}
	if wtx.newMap != nil {
		// The bundle swap shares the epochs' bracket: a cut sees the new
		// map with the moved data, or the old map with the data still at
		// the source — never a mix.
		c.routing.Store(&routing{ms: wtx.rt.ms, rmap: wtx.newMap})
		c.mapDirty = true // newest flip lives only in the clog until folded
	}
	c.endPublish()
	if decErr != nil {
		// Recovery of the poisoned shard needs the decision record.
		c.noReset = true
	}
	// Every decision in the log is now backed by its participants' local
	// commit records (DESIGN.md §12.2), so none is needed any more: empty
	// the log once it has reached the checkpoint limit. A failed trim has
	// poisoned the log; its error is not this commit's, which is durable
	// and published.
	if limit := c.opts.checkpointBytes(); limit >= 0 && c.clogBytes.Load() >= limit {
		_ = c.trimDecisionLog()
	}
	c.cmu.Unlock()
	wtx.release(false)
	c.cm.BatchSize.Observe(1)
	c.addCommitsBatches(1, 1)
	if decErr != nil {
		return fmt.Errorf("txn: %w", decErr)
	}
	c.observeCommit(span, start)
	return nil
}

// trimDecisionLog empties the decision log; nothing else does. It runs
// at open, at every coordinator checkpoint, at Close, and after a 2PC
// commit that leaves the log at the checkpoint limit — each a point where
// every decision the log holds is backed by its participants' local
// commit records or by nothing (presumed abort), so recovery needs none
// of them. It first folds an unfolded map flip into shards.ode, because
// the reset erases the flip's only other copy. It does nothing while a
// poisoned shard or the poisoned log itself needs the log for recovery
// (noReset), and a failure poisons the log: a fold that tore its frame
// must not be retried behind the torn bytes, and a reset that failed
// left the log in an unknown state. Caller holds cmu (or is open).
func (c *Coordinator) trimDecisionLog() error {
	if c.noReset {
		return nil
	}
	var err error
	if c.mapDirty {
		rt := c.routing.Load()
		err = appendShardsFrame(c.shardsFile, len(rt.ms), rt.rmap)
		c.mapDirty = err != nil
	}
	if err == nil {
		if err = c.clog.Reset(); err != nil {
			err = fmt.Errorf("txn: coordinator log reset: %w", err)
		}
	}
	if err != nil {
		c.poisonCoord(err)
		return err
	}
	c.clogBytes.Store(c.clog.Size())
	return nil
}

// Checkpoint checkpoints every shard (draining each shard's pipeline)
// and then trims the decision log (trimDecisionLog).
func (c *Coordinator) Checkpoint() error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.readOnly {
		return ErrReadOnly
	}
	start := time.Now()
	for i, m := range c.ms() {
		// The coordinator counts the checkpoint once at its level.
		m.lockWriterDrained()
		err := ErrClosed
		if !m.isClosed() {
			err = m.checkpointLocked()
		}
		m.unlockWriter()
		if err != nil {
			return fmt.Errorf("txn: checkpoint shard %d: %w", i, err)
		}
	}
	return c.checkpointed(start)
}

// CheckpointExclusive checkpoints every shard and runs fn while STILL
// holding every shard's writer mutex (acquired ascending, pipelines
// drained). Because a cross-shard transaction holds its dirty shards'
// mutexes from prepare through the shard-local decide, holding all of
// them guarantees no 2PC transaction is partially applied anywhere; the
// flushes and fn then see one atomic cut of the whole database. When fn
// runs, the data files hold exactly the committed state and the shard
// WALs and decision log are empty. Backup uses this to copy a
// consistent snapshot — checkpointing and copying under separate
// acquisitions left a window where a 2PC commit reached only the
// later-checkpointed shards' data files, giving the copy half a
// transaction with no log to repair it.
func (c *Coordinator) CheckpointExclusive(fn func() error) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.readOnly {
		return ErrReadOnly
	}
	// Exclude live resharding for the whole quiesced section: the
	// physical shard set and the map are frozen while fn runs, so
	// backup's file enumeration cannot race a grow.
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	ms := c.ms()
	for _, m := range ms {
		m.lockWriterDrained()
		defer m.unlockWriter() // descending, once fn has run
		if m.isClosed() {
			return ErrClosed
		}
	}
	start := time.Now()
	for i, m := range ms {
		// The coordinator counts the checkpoint once at its level.
		if err := m.checkpointLocked(); err != nil {
			return fmt.Errorf("txn: checkpoint shard %d: %w", i, err)
		}
	}
	if err := c.checkpointed(start); err != nil {
		return err
	}
	return fn()
}

// checkpointed finishes a checkpoint once every shard WAL is empty:
// trim the decision log, then account for the checkpoint.
func (c *Coordinator) checkpointed(start time.Time) error {
	c.cmu.Lock()
	err := c.trimDecisionLog()
	c.cmu.Unlock()
	if err != nil {
		return fmt.Errorf("txn: checkpoint: %w", err)
	}
	d := time.Since(start)
	c.cm.CheckpointDuration.ObserveDuration(d)
	c.sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
	return nil
}

// Close closes every shard in order, then trims (if every shard closed
// cleanly) and closes the decision log, then the shared
// tracer sink. New readers are refused from the first step on, and the
// cut no reader holds is retired there: a shard's Close waits for the
// readers registered with it, and an idle cut is one on every shard.
// Readers still inside a transaction keep theirs, and are waited for.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.published()
	var firstErr error
	for _, m := range c.ms() {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.cmu.Lock()
	if c.clog != nil {
		if firstErr == nil && !c.readOnly {
			firstErr = c.trimDecisionLog()
		}
		if err := c.clog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.shardsFile != nil {
		if err := c.shardsFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.cmu.Unlock()
	c.sink.Close()
	return firstErr
}
