package txn

// Page-delta WAL records at the transaction layer: which record kind
// stage logs when, that recovery rebuilds pages from the log alone and
// refuses a delta it has no base for, and crash-matrix rows for the
// places a delta's base could go wrong — the first touch after a
// checkpoint, a chain of deltas inside one group-commit batch, a failed
// batch followed by a re-touch of the same page, a 2PC prepare aborted
// live and the page re-touched. Every row cuts the power after each
// mutating I/O operation of its script (under both crash outcomes) and
// must reopen to exactly the state its acknowledged transactions left.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

const deltaDir = "/db"

// deltaDB is what a script drives: a standalone Manager (one shard) or
// a Coordinator.
type deltaDB interface {
	shards() int
	// write runs one transaction that calls fn with a heap on each
	// listed shard, in order.
	write(on []int, fn func(s int, h *storage.Heap) error) error
	scan(s int, fn func(rid oid.RID, data []byte)) error
	checkpoint() error
	close() error
}

type deltaManager struct{ m *Manager }

func (d deltaManager) shards() int       { return 1 }
func (d deltaManager) checkpoint() error { return d.m.Checkpoint() }
func (d deltaManager) close() error      { return d.m.Close() }
func (d deltaManager) write(on []int, fn func(int, *storage.Heap) error) error {
	return writeH(d.m, func(h *storage.Heap) error { return fn(0, h) })
}
func (d deltaManager) scan(_ int, fn func(oid.RID, []byte)) error {
	return readH(d.m, func(h *storage.Heap) error {
		return h.Scan(func(rid oid.RID, data []byte) (bool, error) { fn(rid, data); return true, nil })
	})
}

type deltaCoord struct{ c *Coordinator }

func (d deltaCoord) shards() int       { return d.c.NumShards() }
func (d deltaCoord) checkpoint() error { return d.c.Checkpoint() }
func (d deltaCoord) close() error      { return d.c.Close() }
func (d deltaCoord) write(on []int, fn func(int, *storage.Heap) error) error {
	return d.c.Write(func(w *WriteTx) error {
		for _, s := range on {
			v, err := w.Join(s)
			if err != nil {
				return err
			}
			if err := fn(s, storage.NewHeap(v, nil)); err != nil {
				return err
			}
		}
		return nil
	})
}
func (d deltaCoord) scan(s int, fn func(oid.RID, []byte)) error {
	return d.c.Read(func(r *ReadTx) error {
		return storage.NewHeap(r.View(s), nil).Scan(func(rid oid.RID, data []byte) (bool, error) {
			fn(rid, data)
			return true, nil
		})
	})
}

// openDeltaDB opens (creating if absent) the script's database: a
// coordinator over shards shards, or a standalone manager for 0.
func openDeltaDB(fsys faultfs.FS, shards int, noSync bool) (deltaDB, error) {
	opts := Options{
		Storage:         storage.Options{PageSize: matrixPageSize},
		CheckpointBytes: -1,
		NoSync:          noSync,
		FS:              fsys,
	}
	if shards > 0 {
		opts.Shards = shards
		c, err := OpenCoordinator(deltaDir, opts)
		if err != nil {
			return nil, err
		}
		return deltaCoord{c}, nil
	}
	if _, err := fsys.Stat(filepath.Join(deltaDir, DataFileName)); err != nil {
		m, err := Create(deltaDir, opts)
		if err != nil {
			return nil, err
		}
		return deltaManager{m}, nil
	}
	m, err := Open(deltaDir, opts)
	if err != nil {
		return nil, err
	}
	return deltaManager{m}, nil
}

// deltaState is every record of every shard: shard → rid → payload.
type deltaState []map[oid.RID]string

func (st deltaState) clone() deltaState {
	out := make(deltaState, len(st))
	for s, m := range st {
		out[s] = maps.Clone(m)
	}
	return out
}

func (st deltaState) String() string {
	var b strings.Builder
	for s, m := range st {
		rids := make([]oid.RID, 0, len(m))
		for rid := range m {
			rids = append(rids, rid)
		}
		sort.Slice(rids, func(i, j int) bool {
			return rids[i].Page < rids[j].Page || rids[i].Page == rids[j].Page && rids[i].Slot < rids[j].Slot
		})
		for _, rid := range rids {
			fmt.Fprintf(&b, "  %d/%v=%q\n", s, rid, m[rid])
		}
	}
	return b.String()
}

func readDeltaState(db deltaDB) (deltaState, error) {
	st := make(deltaState, db.shards())
	for s := range st {
		st[s] = map[oid.RID]string{}
		if err := db.scan(s, func(rid oid.RID, data []byte) { st[s][rid] = string(data) }); err != nil {
			return nil, fmt.Errorf("scan of shard %d: %w", s, err)
		}
	}
	return st, nil
}

// deltaScript is one run of a row's script: the state the acknowledged
// transactions left, the states they passed through, and what the
// transaction in flight when the power went would have made it.
type deltaScript struct {
	db      deltaDB
	acked   deltaState
	history []deltaState // acked after each acknowledgement, oldest first
	pending deltaState   // nil: nothing in flight
	// doomed is what the last transaction that failed on an injected
	// fault would have left, until a later one is acknowledged: if the
	// power goes before its records are cut from the log, a crash that
	// kept the unsynced bytes finds it whole — never acknowledged, never
	// reported gone to anyone who could act on it.
	doomed deltaState
	err    error // the error that ended the script, if one did
}

// tx runs one transaction touching the listed shards. On each it inserts
// a record and rewrites the oldest one in place with a payload of the
// same length, so pages already logged change by memmove-free overwrite
// and by slot-directory growth — the edits a delta has to carry. With
// wantFail the transaction is expected to fail on an injected fault and
// leave no trace. It reports whether the script may go on.
func (sc *deltaScript) tx(tag string, wantFail bool, on ...int) bool {
	if sc.err != nil {
		return false
	}
	next := sc.acked.clone()
	err := sc.db.write(on, func(s int, h *storage.Heap) error { return deltaTouch(h, next[s], tag) })
	switch {
	case err == nil && !wantFail:
		sc.acked, sc.doomed = next, nil
		sc.history = append(sc.history, next)
	case errors.Is(err, faultfs.ErrInjected) && wantFail:
		// Reported failed: rolled back, erased from the log (or left as a
		// prepare nobody decided). acked stands.
		sc.doomed = next
	case err == nil:
		sc.err = fmt.Errorf("tx %s: committed, and the script meant its fsync to fail", tag)
	default:
		sc.pending, sc.err = next, err
	}
	return sc.err == nil
}

func (sc *deltaScript) checkpoint() bool {
	if sc.err == nil {
		sc.err = sc.db.checkpoint()
	}
	return sc.err == nil
}

func deltaTouch(h *storage.Heap, st map[oid.RID]string, tag string) error {
	var oldest *oid.RID
	for rid := range st {
		if oldest == nil || rid.Page < oldest.Page || rid.Page == oldest.Page && rid.Slot < oldest.Slot {
			r := rid
			oldest = &r
		}
	}
	// Two records to a 512-byte page, so a script of a few transactions
	// spreads over several pages and a flush has more than one run.
	payload := fmt.Sprintf("%-8s-%s", tag, strings.Repeat("abcdefghijklmnopqrstuvwxyz0123456789", 5))
	rid, err := h.Insert([]byte(payload))
	if err != nil {
		return err
	}
	st[rid] = payload
	if oldest != nil {
		rewritten := fmt.Sprintf("%-8s-%s", tag, strings.Repeat("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", 5))
		if err := h.Update(*oldest, []byte(rewritten)); err != nil {
			return err
		}
		st[*oldest] = rewritten
	}
	return nil
}

// deltaRow is one crash-matrix row.
type deltaRow struct {
	shards int  // 0: a standalone Manager
	noSync bool // commits only buffered; checkpoints still fsync
	// failSync is which fsync after the script calls mark() fails with an
	// injected error (1 = the next one); 0 injects nothing but the cut.
	failSync uint64
	script   func(sc *deltaScript, mark func())
}

func (row deltaRow) run(fsys faultfs.FS, mark func()) *deltaScript {
	sc := &deltaScript{}
	if sc.db, sc.err = openDeltaDB(fsys, row.shards, row.noSync); sc.err != nil {
		return sc
	}
	sc.acked = make(deltaState, sc.db.shards())
	for s := range sc.acked {
		sc.acked[s] = map[oid.RID]string{}
	}
	sc.history = []deltaState{sc.acked}
	row.script(sc, mark)
	return sc // not closed: the crash is now
}

// verify reopens a crashed image and holds it to the script's outcome:
// exactly the acknowledged state, or that plus the whole transaction in
// flight — under NoSync, where an acknowledgement promises no more, the
// state after any prefix of the acknowledged transactions — and a
// database that takes writes and closes cleanly.
func (row deltaRow) verify(crashed faultfs.FS, sc *deltaScript) error {
	if sc.acked == nil {
		return nil // the database was never created
	}
	db, err := openDeltaDB(crashed, row.shards, false)
	if err != nil {
		created := false
		for _, m := range sc.acked {
			created = created || len(m) > 0
		}
		if !created {
			return nil // nothing acknowledged; the directory may be half-made
		}
		return fmt.Errorf("reopen: %w", err)
	}
	got, err := readDeltaState(db)
	if err != nil {
		db.close()
		return err
	}
	allowed := []deltaState{sc.acked, sc.pending, sc.doomed}
	if row.noSync {
		allowed = append(allowed, sc.history...)
	}
	ok := false
	for _, st := range allowed {
		ok = ok || st != nil && got.String() == st.String()
	}
	if !ok {
		db.close()
		return fmt.Errorf("recovered state is neither the acknowledged one nor that plus the transaction in flight:\ngot\n%sacked\n%s", got, sc.acked)
	}
	all := make([]int, db.shards())
	for s := range all {
		all[s] = s
	}
	if err := db.write(all, func(s int, h *storage.Heap) error { return deltaTouch(h, got[s], "recover") }); err != nil {
		db.close()
		return fmt.Errorf("recovered database rejects writes: %w", err)
	}
	if err := db.close(); err != nil {
		return fmt.Errorf("close after recovery: %w", err)
	}
	// Closed clean, it reopens to the same records with nothing to redo.
	if db, err = openDeltaDB(crashed, row.shards, false); err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	defer db.close()
	again, err := readDeltaState(db)
	if err != nil {
		return err
	}
	if again.String() != got.String() {
		return fmt.Errorf("state changed across a clean close:\ngot\n%swant\n%s", again, got)
	}
	return nil
}

// sweep runs the row fault-free (to place failSync and size the op
// space), then once per mutating operation with the power cut after it,
// under both crash outcomes.
func (row deltaRow) sweep(t *testing.T) {
	t.Helper()
	plan := faultfs.Plan{}
	if row.failSync > 0 {
		probe := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
		var at uint64
		row.run(probe, func() { at = probe.Counts().Syncs })
		plan.FailSyncN = at + row.failSync
	}
	dry := faultfs.NewInjector(faultfs.NewMem(), plan)
	marked := false
	full := row.run(dry, func() { marked = true })
	if full.err != nil {
		t.Fatalf("the script does not finish without a power cut: %v", full.err)
	}
	if row.failSync > 0 && !marked {
		t.Fatal("the script never called mark")
	}
	ops := dry.Counts().Ops
	for n := uint64(1); n <= ops; n++ {
		for _, keepUnsynced := range []bool{false, true} {
			p := plan
			p.PowerCutAfterOps = n
			mem := faultfs.NewMem()
			sc := row.run(faultfs.NewInjector(mem, p), func() {})
			if err := row.verify(mem.Crash(keepUnsynced), sc); err != nil {
				t.Errorf("%v keepUnsynced=%v (script ended with %v): %v", p, keepUnsynced, sc.err, err)
			}
		}
	}
	t.Logf("%d power cuts x 2 crash outcomes", ops)
}

func TestPageDeltaCrashMatrix(t *testing.T) {
	rows := map[string]deltaRow{
		// Images, deltas on them, a checkpoint, then the same pages again:
		// the first touch after the reset must carry the whole page, and
		// the cuts inside the checkpoint's page writes must find it.
		"first touch after a checkpoint": {shards: 1, script: func(sc *deltaScript, _ func()) {
			for i := 0; i < 4; i++ {
				sc.tx(fmt.Sprint("pre", i), false, 0)
			}
			sc.checkpoint()
			for i := 0; i < 4; i++ {
				sc.tx(fmt.Sprint("post", i), false, 0)
			}
			sc.checkpoint()
			sc.tx("last", false, 0)
		}},
		// The same under NoSync, where only a checkpoint makes anything
		// durable: what survives is a committed prefix, never pages the
		// log has not heard of (the WAL-before-data rule).
		"NoSync checkpoints": {shards: 0, noSync: true, script: func(sc *deltaScript, _ func()) {
			for i := 0; i < 6; i++ {
				sc.tx(fmt.Sprint("a", i), false, 0)
			}
			sc.checkpoint()
			for i := 0; i < 3; i++ {
				sc.tx(fmt.Sprint("b", i), false, 0)
			}
			sc.checkpoint()
		}},
		// A commit's fsync fails: the batch is rolled back and cut from the
		// log. The page it touched was dirty from earlier commits, so the
		// re-touch is a delta against what they left; then the same after
		// a checkpoint, where the failed commit's image was the page's
		// first and the re-touch must log the image again.
		"failed batch, then a re-touch": {shards: 0, failSync: 1, script: func(sc *deltaScript, mark func()) {
			sc.tx("one", false, 0)
			sc.tx("two", false, 0)
			mark()
			sc.tx("doomed", true, 0)
			sc.tx("three", false, 0)
			sc.tx("four", false, 0)
		}},
		"failed first touch after a checkpoint, then a re-touch": {shards: 0, failSync: 1, script: func(sc *deltaScript, mark func()) {
			sc.tx("one", false, 0)
			sc.tx("two", false, 0)
			sc.checkpoint()
			mark()
			sc.tx("doomed", true, 0)
			sc.tx("three", false, 0)
			sc.tx("four", false, 0)
		}},
		// A cross-shard transaction whose second prepare fails: shard 0's
		// prepare is durable and stays in its log, aborted live. Later
		// deltas on the same pages must apply to the state without it.
		"2PC prepare aborted live, then a re-touch": {shards: 2, failSync: 2, script: func(sc *deltaScript, mark func()) {
			sc.tx("one", false, 0)
			sc.tx("both", false, 0, 1)
			mark()
			sc.tx("doomed", true, 0, 1)
			sc.tx("three", false, 0)
			sc.tx("four", false, 1, 0)
			sc.tx("five", false, 1)
		}},
	}
	for name, row := range rows {
		t.Run(name, func(t *testing.T) { row.sweep(t) })
	}
}

// TestPageDeltaBatchChainCrashMatrix is the row for delta chains inside
// one group-commit batch: three transactions on the same pages, the last
// two forced into one batch, each a delta against its predecessor's
// after-image — which is in the same batch, not yet durable. Whatever
// prefix of the log survives a cut, recovery must land on the state
// after a prefix of the acknowledged commits.
func TestPageDeltaBatchChainCrashMatrix(t *testing.T) {
	// run drives the script and returns the states after 0..3 commits,
	// plus how many were acknowledged.
	run := func(fsys faultfs.FS) (states []deltaState, acked int, err error) {
		db, err := openDeltaDB(fsys, 0, false)
		if err != nil {
			return nil, 0, err
		}
		m := db.(deltaManager).m
		st := deltaState{map[oid.RID]string{}}
		states = append(states, st.clone())
		step := func(tag string) (*commitReq, error) {
			req, err := m.writeLocked(func(v *storage.TxView) error {
				return deltaTouch(storage.NewHeap(v, nil), st[0], tag)
			}, time.Time{})
			if err == nil {
				states = append(states, st.clone())
			}
			return req, err
		}
		// Hold the log: the first writer leads its request as a batch of
		// one and parks on logMu; the next two queue up behind it, and
		// the second's writer leads both together.
		m.logMu.Lock()
		var reqs []*commitReq
		first := make(chan error, 1)
		for i, tag := range []string{"head", "chain-a", "chain-b"} {
			req, err := step(tag)
			if err != nil {
				m.logMu.Unlock()
				return states, 0, err
			}
			reqs = append(reqs, req)
			if i == 0 {
				go func() { first <- req.await() }()
				for m.gc.noBatchInFlight() {
					runtime.Gosched()
				}
			}
		}
		m.logMu.Unlock()
		for i, req := range reqs {
			if i == 0 {
				err = <-first
			} else {
				err = req.await()
			}
			if err != nil {
				return states, acked, err
			}
			acked++
		}
		if b := m.Stats().Batches; b != 2 {
			return states, acked, fmt.Errorf("three commits left in %d batches, want 1 + 2", b)
		}
		return states, acked, nil
	}
	dry := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	if _, acked, err := run(dry); err != nil || acked != 3 {
		t.Fatalf("dry run: %d acked, %v", acked, err)
	}
	// Every power cut, and — the two-member batch being one write — that
	// write torn at every 131st byte with the power gone before the log
	// can be healed, so the chain is cut between and inside its records.
	cnt := dry.Counts()
	var plans []faultfs.Plan
	for n := uint64(1); n <= cnt.Ops; n++ {
		plans = append(plans, faultfs.Plan{PowerCutAfterOps: n})
	}
	for k := 0; k < 4096; k += 131 {
		plans = append(plans, faultfs.Plan{TearWriteN: cnt.Writes, TearBytes: k, PowerCutAfterOps: cnt.Ops - 1})
	}
	t.Logf("%d power cuts and torn batch writes x 2 crash outcomes", len(plans))
	var seen [5]int // by commits recovered, offset by one
	defer func() {
		if seen[2] == 0 || seen[3] == 0 || seen[4] == 0 {
			t.Errorf("recovered 1, 2 and 3 commits %d, %d and %d times: the matrix never cut the chain between its records", seen[2], seen[3], seen[4])
		}
	}()
	for _, plan := range plans {
		n := plan
		for _, keepUnsynced := range []bool{false, true} {
			mem := faultfs.NewMem()
			states, acked, _ := run(faultfs.NewInjector(mem, plan))
			if states == nil {
				continue
			}
			db, err := openDeltaDB(mem.Crash(keepUnsynced), 0, false)
			if err != nil {
				if acked > 0 {
					t.Errorf("%v keepUnsynced=%v: reopen with %d acked: %v", n, keepUnsynced, acked, err)
				}
				continue
			}
			got, err := readDeltaState(db)
			db.close()
			if err != nil {
				t.Errorf("%v keepUnsynced=%v: %v", n, keepUnsynced, err)
				continue
			}
			match := -1
			for k := acked; k < len(states); k++ {
				if got.String() == states[k].String() {
					match = k
				}
			}
			seen[match+1]++
			if match < 0 {
				t.Errorf("%v keepUnsynced=%v: %d acked, recovered\n%swhich is the state after no prefix of at least that many commits", n, keepUnsynced, acked, got)
			}
		}
	}
}

// noBatchInFlight reports whether no writer has claimed a batch yet.
func (gc *groupCommitter) noBatchInFlight() bool {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	return len(gc.flights) == 0
}

// logRecords scans a WAL file on fsys through a second handle.
func logRecords(t *testing.T, fsys faultfs.FS, path string) []wal.Record {
	t.Helper()
	l, err := wal.OpenFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs []wal.Record
	if err := l.Scan(func(r wal.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// pageKinds renders the page records of the log's last n transactions,
// e.g. "0:delta 1:image".
func pageKinds(recs []wal.Record, n int) []string {
	var txs []string
	var cur []string
	for _, r := range recs {
		switch r.Type {
		case wal.RecBegin:
			cur = nil
		case wal.RecPageImage:
			cur = append(cur, fmt.Sprintf("%d:image", r.Page))
		case wal.RecPageDelta:
			cur = append(cur, fmt.Sprintf("%d:delta", r.Page))
		case wal.RecCommit, wal.RecPrepare:
			txs = append(txs, strings.Join(cur, " "))
		}
	}
	return txs[len(txs)-n:]
}

// TestStageLogsImageOnFirstTouchOnly pins the rule: a page is logged as
// an image exactly when no standing transaction has logged it since the
// log was last reset — on its first touch, on allocation, after a
// checkpoint, and again after the transaction that first logged it was
// rolled back — and as a delta otherwise.
func TestStageLogsImageOnFirstTouchOnly(t *testing.T) {
	mem := faultfs.NewMem()
	m, err := Create(deltaDir, Options{Storage: storage.Options{PageSize: matrixPageSize}, CheckpointBytes: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	walPath := filepath.Join(deltaDir, WALFileName)
	// Short records: everything below happens on heap page 1.
	insert := func(h *storage.Heap, tag string) error {
		_, err := h.Insert([]byte(tag + "-abcdefghijklmnopqrstuvwxyz"))
		return err
	}
	touch := func(tag string) error {
		return writeH(m, func(h *storage.Heap) error { return insert(h, tag) })
	}
	last := func(n int) []string { t.Helper(); return pageKinds(logRecords(t, mem, walPath), n) }
	expect := func(when string, want ...string) {
		t.Helper()
		if got := last(len(want)); strings.Join(got, " | ") != strings.Join(want, " | ") {
			t.Fatalf("%s: logged %q, want %q", when, got, want)
		}
	}
	// The superblock (clean since Create) and a freshly allocated heap
	// page: both images. Then both again: both deltas.
	if err := touch("t1"); err != nil {
		t.Fatal(err)
	}
	if err := touch("t2"); err != nil {
		t.Fatal(err)
	}
	expect("first touches, then a second", "0:image 1:image", "1:delta")
	// A checkpoint resets the log: the next touch is a first touch.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := touch("t3"); err != nil {
		t.Fatal(err)
	}
	if err := touch("t4"); err != nil {
		t.Fatal(err)
	}
	expect("after a checkpoint", "1:image", "1:delta")
	// A transaction that fails after touching a clean page puts it back
	// clean: whoever touches it next logs the image, not a delta against
	// a state the log never kept.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := writeH(m, func(h *storage.Heap) error {
		if err := insert(h, "never"); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := touch("t5"); err != nil {
		t.Fatal(err)
	}
	expect("after a rollback of the first touch", "1:image")
	// And one that fails after touching a dirty page leaves it dirty, as
	// the log knows it: the next touch is a delta.
	if err := writeH(m, func(h *storage.Heap) error {
		if err := insert(h, "never"); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := touch("t6"); err != nil {
		t.Fatal(err)
	}
	expect("after a rollback of a later touch", "1:delta")

	im, dl := m.Metrics().WALPageImages.Load(), m.Metrics().WALPageDeltas.Load()
	if im != 4 || dl != 3 {
		t.Fatalf("staged %d images and %d deltas, want 4 and 3", im, dl)
	}
	if ib, db := m.Metrics().WALPageImageBytes.Load(), m.Metrics().WALPageDeltaBytes.Load(); ib < 4*matrixPageSize || db == 0 || db >= ib {
		t.Fatalf("staged %d image bytes and %d delta bytes", ib, db)
	}
}

// TestRecoveryRejectsUnbasedAndOutOfRangeDeltas: a committed delta for a
// page no earlier committed record imaged, or one whose ranges fall
// outside the page, fails recovery with an error. It is never skipped,
// and never applied to the data file's copy of the page, which an
// interrupted checkpoint may have torn; the log is left as it was.
func TestRecoveryRejectsUnbasedAndOutOfRangeDeltas(t *testing.T) {
	page := func(fill byte) []byte {
		p := make([]byte, matrixPageSize)
		for i := range p {
			p[i] = fill
		}
		return p
	}
	edited := page(1)
	copy(edited[100:], "changed")
	big, bigEdited := make([]byte, 4*matrixPageSize), make([]byte, 4*matrixPageSize)
	copy(bigEdited[3*matrixPageSize:], "beyond the page")
	for name, build := range map[string]func(fr *wal.Frames){
		"no image of the page in the log": func(fr *wal.Frames) {
			fr.Begin(1)
			fr.PageImage(1, 1, page(1))
			fr.Commit(1)
			fr.Begin(2)
			if !fr.PageDelta(2, 2, page(1), edited) {
				t.Fatal("delta refused")
			}
			fr.Commit(2)
		},
		"the only image is an uncommitted transaction's": func(fr *wal.Frames) {
			fr.Begin(1)
			fr.PageImage(1, 1, page(1)) // never commits: a live-aborted prepare, say
			fr.Prepare(1, 77)
			fr.Begin(2)
			if !fr.PageDelta(2, 1, page(1), edited) {
				t.Fatal("delta refused")
			}
			fr.Commit(2)
		},
		"a range outside the page": func(fr *wal.Frames) {
			fr.Begin(1)
			fr.PageImage(1, 1, page(1))
			fr.Commit(1)
			fr.Begin(2)
			if !fr.PageDelta(2, 1, big, bigEdited) {
				t.Fatal("delta refused")
			}
			fr.Commit(2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			mem := faultfs.NewMem()
			m, err := Create(deltaDir, Options{Storage: storage.Options{PageSize: matrixPageSize}, FS: mem})
			if err != nil {
				t.Fatal(err)
			}
			if err := writeH(m, func(h *storage.Heap) error { _, err := h.Insert([]byte("on disk")); return err }); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			dataPath, walPath := filepath.Join(deltaDir, DataFileName), filepath.Join(deltaDir, WALFileName)
			log, err := wal.OpenFS(mem, walPath)
			if err != nil {
				t.Fatal(err)
			}
			logRun(t, log, build)
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			log.Close()
			dataBefore, _ := mem.ReadFile(dataPath)
			walBefore, _ := mem.ReadFile(walPath)

			counting := faultfs.NewInjector(mem, faultfs.Plan{})
			_, err = Open(deltaDir, Options{FS: counting})
			if err == nil || !strings.Contains(err.Error(), "recovery") {
				t.Fatalf("open over a log with such a delta: %v", err)
			}
			if c := counting.Counts(); c.Writes != 0 || c.Truncates != 0 {
				t.Fatalf("failed recovery wrote: %+v", c)
			}
			dataAfter, _ := mem.ReadFile(dataPath)
			walAfter, _ := mem.ReadFile(walPath)
			if string(dataAfter) != string(dataBefore) || string(walAfter) != string(walBefore) {
				t.Fatal("failed recovery changed the files")
			}
		})
	}
}

// TestRecoveryReadsNoDataPage: recovery rebuilds every page from the log
// alone — not one read of the data file, whose pages an interrupted
// checkpoint may have left torn under checksums that no longer hold.
func TestRecoveryReadsNoDataPage(t *testing.T) {
	mem := faultfs.NewMem()
	row := deltaRow{shards: 0, script: func(sc *deltaScript, _ func()) {
		for i := 0; i < 6; i++ {
			sc.tx(fmt.Sprint("t", i), false, 0)
		}
	}}
	sc := row.run(mem, func() {})
	if sc.err != nil {
		t.Fatal(sc.err)
	}
	crashed := mem.Crash(false)
	// Tear every data page but the superblock's header: recovery must not
	// notice, because it must not look.
	dataPath := filepath.Join(deltaDir, DataFileName)
	f, err := crashed.OpenFile(dataPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	for off := int64(matrixPageSize); off < size; off += matrixPageSize {
		if _, err := f.WriteAt([]byte("torn by a checkpoint that never finished"), off+64); err != nil {
			t.Fatal(err)
		}
	}
	f.Sync()
	f.Close()
	if err := row.verify(crashed, sc); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyPagesTriggerCheckpoint: with the log far below its size limit
// a checkpoint still falls due when dirty pages reach their share of the
// pool, with fsync on or off, and the counters say which trigger fired.
func TestDirtyPagesTriggerCheckpoint(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("NoSync=%v", noSync), func(t *testing.T) {
			m, err := Create(t.TempDir()+"/db", Options{
				Storage: storage.Options{PageSize: matrixPageSize, PoolPages: 16},
				NoSync:  noSync,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			payload := make([]byte, 300) // one record per 512-byte page
			for i := 0; i < 40 && m.Stats().Checkpoints == 0; i++ {
				if err := writeH(m, func(h *storage.Heap) error { _, err := h.Insert(payload); return err }); err != nil {
					t.Fatal(err)
				}
				// The checkpointer runs in the background; give it the
				// shard between commits.
				for j := 0; j < 100 && m.Metrics().CheckpointsByDirtyPages.Load() > 0 && m.Stats().Checkpoints == 0; j++ {
					runtime.Gosched()
				}
			}
			if m.Stats().Checkpoints == 0 {
				t.Fatal("40 pages dirtied in a 16-page pool and no checkpoint ran")
			}
			if by := m.Metrics().CheckpointsByDirtyPages.Load(); by == 0 {
				t.Fatal("the checkpoint ran, but not on the dirty-page trigger")
			}
			if by := m.Metrics().CheckpointsByWALBytes.Load(); by != 0 {
				t.Fatalf("%d checkpoints on the size trigger with a log of a few KiB", by)
			}
			if _, dirty := m.Store().Pool().Resident(); dirty >= 12 {
				t.Fatalf("%d dirty pages after the checkpoint", dirty)
			}
			if got, want := m.Metrics().DirtyPages.Load(), int64(dirtyOf(m)); got != want {
				t.Fatalf("dirty-pages gauge %d, pool says %d", got, want)
			}
		})
	}
}

func dirtyOf(m *Manager) int {
	_, dirty := m.Store().Pool().Resident()
	return dirty
}
