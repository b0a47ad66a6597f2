package ode

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ode/internal/txn"
)

// openShardedDB opens a database with an explicit shard count in a
// fresh temp dir and returns it with its directory (for reopen tests).
func openShardedDB(t testing.TB, shards int, opts *Options) (*DB, string) {
	t.Helper()
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Shards = shards
	dir := t.TempDir()
	db, err := Open(dir, &o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

func TestShardedBasicAndReopen(t *testing.T) {
	db, dir := openShardedDB(t, 4, nil)
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	// Objects created in separate transactions round-robin across
	// shards; each then grows a version.
	const n = 24
	ptrs := make([]Ptr[Part], n)
	for i := 0; i < n; i++ {
		i := i
		if err := db.Update(func(tx *Tx) error {
			var err error
			ptrs[i], err = parts.Create(tx, &Part{Name: fmt.Sprintf("p%d", i), Rev: 0})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	shardsHit := map[uint64]bool{}
	for i := 0; i < n; i++ {
		shardsHit[uint64(ptrs[i].OID())%4] = true
		i := i
		if err := db.Update(func(tx *Tx) error {
			v, err := ptrs[i].NewVersion(tx)
			if err != nil {
				return err
			}
			return v.Set(tx, &Part{Name: fmt.Sprintf("p%d", i), Rev: 1})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(shardsHit) != 4 {
		t.Fatalf("allocation hit %d/4 shards", len(shardsHit))
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Objects != n || st.Versions != 2*n {
		t.Fatalf("stats: %d objects, %d versions", st.Objects, st.Versions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen adopting the layout (Shards=0): everything must be there.
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Shards() != 4 {
		t.Fatalf("adopted %d shards", db2.Shards())
	}
	parts2, err := Register[Part](db2, "Part")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.View(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			p, err := ptrs[i].Deref(tx)
			if err != nil {
				return fmt.Errorf("p%d: %w", i, err)
			}
			if p.Rev != 1 {
				return fmt.Errorf("p%d rev %d", i, p.Rev)
			}
		}
		cnt, err := parts2.Count(tx)
		if err != nil {
			return err
		}
		if cnt != n {
			return fmt.Errorf("extent %d", cnt)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedCrossShardUpdate(t *testing.T) {
	db, _ := openShardedDB(t, 4, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	// Two objects on (very likely) different shards, created in
	// separate transactions.
	var a, b Ptr[Part]
	if err := db.Update(func(tx *Tx) error {
		var err error
		a, err = parts.Create(tx, &Part{Name: "a"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := db.Update(func(tx *Tx) error {
			var err error
			b, err = parts.Create(tx, &Part{Name: "b"})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if uint64(b.OID())%4 != uint64(a.OID())%4 {
			break
		}
	}
	// One transaction versioning both: a cross-shard (2PC) commit.
	if err := db.Update(func(tx *Tx) error {
		va, err := a.NewVersion(tx)
		if err != nil {
			return err
		}
		if err := va.Set(tx, &Part{Name: "a", Rev: 1}); err != nil {
			return err
		}
		vb, err := b.NewVersion(tx)
		if err != nil {
			return err
		}
		return vb.Set(tx, &Part{Name: "b", Rev: 1})
	}); err != nil {
		t.Fatal(err)
	}
	// An aborting cross-shard transaction must leave both untouched.
	boom := errors.New("boom")
	err = db.Update(func(tx *Tx) error {
		if _, err := a.NewVersion(tx); err != nil {
			return err
		}
		if _, err := b.NewVersion(tx); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		for _, p := range []Ptr[Part]{a, b} {
			vs, err := tx.ctx.Versions(p.OID())
			if err != nil {
				return err
			}
			if len(vs) != 2 {
				return fmt.Errorf("%v has %d versions, want 2", p.OID(), len(vs))
			}
			cur, err := p.Deref(tx)
			if err != nil {
				return err
			}
			if cur.Rev != 1 {
				return fmt.Errorf("%v rev %d", p.OID(), cur.Rev)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyLayoutUpgrade takes a directory a pre-shard release wrote
// (the legacy-unrecovered fixture: data.ode + wal.ode, crashed with
// committed work still in the WAL) through everything a database
// created today can do: adopted in place by its first open, written,
// split to four shards, reopened by count, backed up and restored —
// with data.ode remaining shard 0's file throughout.
func TestLegacyLayoutUpgrade(t *testing.T) {
	dir, model := formatFixtureDir(t, "legacy-unrecovered")
	has := func(dir, name string) bool {
		t.Helper()
		_, err := os.Stat(filepath.Join(dir, name))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return err == nil
	}
	// It is one shard; asking for four is refused before anything is
	// written, and the answer is Reshard.
	if _, err := Open(dir, &Options{Shards: 4}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("legacy dir with Shards=4: %v", err)
	}
	if has(dir, txn.ShardsFileName) {
		t.Fatal("a refused open adopted the directory")
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Shards() != 1 {
		t.Fatalf("legacy adopted as %d shards", db.Shards())
	}
	formatCheck(t, db, model)
	if err := db.Update(func(tx *Tx) error {
		_, err := tx.UpdateLatestRaw(OID(model[0].OID), []byte("after-adoption"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	model[0].Latest = "after-adoption"
	if err := db.Reshard(4); err != nil {
		t.Fatal(err)
	}
	formatCheck(t, db, model)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 4 {
		t.Fatalf("reopened with %d shards, want 4", db.Shards())
	}
	formatCheck(t, db, model)
	bdir := filepath.Join(t.TempDir(), "backup")
	if err := db.Backup(bdir); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, bdir} {
		for _, f := range []string{txn.ShardsFileName, txn.DataFileName, txn.ShardDataFileName(1), txn.ShardDataFileName(3)} {
			if !has(d, f) {
				t.Errorf("%s lacks %s", d, f)
			}
		}
		if has(d, txn.ShardDataFileName(0)) || has(d, txn.ShardWALFileName(0)) {
			t.Errorf("%s: shard 0 moved out of %s", d, txn.DataFileName)
		}
	}
	bdb, err := Open(bdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	if bdb.Shards() != 4 {
		t.Fatalf("backup opened with %d shards, want 4", bdb.Shards())
	}
	formatCheck(t, bdb, model)
}

func TestShardedBackup(t *testing.T) {
	db, _ := openShardedDB(t, 3, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]Ptr[Part], 9)
	for i := range ptrs {
		i := i
		if err := db.Update(func(tx *Tx) error {
			var err error
			ptrs[i], err = parts.Create(tx, &Part{Name: fmt.Sprintf("b%d", i)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	dst := t.TempDir()
	if err := db.Backup(dst); err != nil {
		t.Fatal(err)
	}
	bdb, err := Open(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	if bdb.Shards() != 3 {
		t.Fatalf("backup has %d shards", bdb.Shards())
	}
	if err := bdb.View(func(tx *Tx) error {
		for i := range ptrs {
			if _, err := ptrs[i].Deref(tx); err != nil {
				return fmt.Errorf("b%d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := bdb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// crossShardPair creates two objects on different shards of db (the
// engine round-robins fresh objects across shards, so a few tries
// suffice) and returns them.
func crossShardPair(t *testing.T, db *DB, parts *Type[Part]) (a, b Ptr[Part]) {
	t.Helper()
	if err := db.Update(func(tx *Tx) error {
		var err error
		a, err = parts.Create(tx, &Part{Name: "a"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := db.Update(func(tx *Tx) error {
			var err error
			b, err = parts.Create(tx, &Part{Name: "b"})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// An id's top bits name its birth shard (storage.SlotOf).
		if uint64(b.OID())>>54 != uint64(a.OID())>>54 {
			return a, b
		}
	}
}

// TestShardedBackupAtomicCrossShard races Backup against a writer that
// keeps two objects on different shards at the same revision with
// cross-shard (2PC) commits. Every backup must hold one atomic cut:
// equal revisions. Before CheckpointExclusive, the per-shard
// checkpoints ran under separate mutex acquisitions, so a 2PC commit
// landing between them reached only the later-checkpointed shard's
// data file — and the copied snapshot held half a transaction.
func TestShardedBackupAtomicCrossShard(t *testing.T) {
	db, _ := openShardedDB(t, 2, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	a, b := crossShardPair(t, db, parts)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			for rev := 1; ; rev++ {
				select {
				case <-stop:
					return nil
				default:
				}
				if err := db.Update(func(tx *Tx) error {
					if err := a.Set(tx, &Part{Name: "a", Rev: rev}); err != nil {
						return err
					}
					return b.Set(tx, &Part{Name: "b", Rev: rev})
				}); err != nil {
					return err
				}
			}
		}()
	}()
	for i := 0; i < 4; i++ {
		dst := t.TempDir()
		if err := db.Backup(dst); err != nil {
			t.Fatal(err)
		}
		bdb, err := Open(dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = bdb.View(func(tx *Tx) error {
			pa, err := a.Deref(tx)
			if err != nil {
				return err
			}
			pb, err := b.Deref(tx)
			if err != nil {
				return err
			}
			if pa.Rev != pb.Rev {
				return fmt.Errorf("backup %d tore a cross-shard transaction: a.Rev=%d b.Rev=%d", i, pa.Rev, pb.Rev)
			}
			return nil
		})
		if err == nil {
			err = bdb.CheckIntegrity()
		}
		bdb.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPartialShardedLayoutRefused: shard files without shards.ode — an
// interrupted create or a deleted superblock — must fail loudly rather
// than be silently re-created over.
func TestPartialShardedLayoutRefused(t *testing.T) {
	db, dir := openShardedDB(t, 2, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := parts.Create(tx, &Part{Name: "orphan"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, txn.ShardsFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); !errors.Is(err, ErrPartialLayout) {
		t.Fatalf("open of partial layout: %v", err)
	}
	// An explicit shard count does not bypass the check either.
	if _, err := Open(dir, &Options{Shards: 2}); !errors.Is(err, ErrPartialLayout) {
		t.Fatalf("open of partial layout with Shards=2: %v", err)
	}
}

// TestShardedExtentOrderAndEarlyStop: the cross-shard extent merge must
// stream in global oid order and honour early termination.
func TestShardedExtentOrderAndEarlyStop(t *testing.T) {
	db, _ := openShardedDB(t, 4, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := parts.Create(tx, &Part{Name: fmt.Sprintf("e%d", i)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.View(func(tx *Tx) error {
		var seen []uint64
		if err := parts.Extent(tx, func(p Ptr[Part]) (bool, error) {
			seen = append(seen, uint64(p.OID()))
			return true, nil
		}); err != nil {
			return err
		}
		if len(seen) != n {
			return fmt.Errorf("extent yielded %d oids, want %d", len(seen), n)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				return fmt.Errorf("extent out of order at %d: %d after %d", i, seen[i], seen[i-1])
			}
		}
		// Early stop: fn must be called exactly k times, and the prefix
		// must match the full scan's.
		const k = 7
		var head []uint64
		if err := parts.Extent(tx, func(p Ptr[Part]) (bool, error) {
			head = append(head, uint64(p.OID()))
			return len(head) < k, nil
		}); err != nil {
			return err
		}
		if len(head) != k {
			return fmt.Errorf("early stop yielded %d oids, want %d", len(head), k)
		}
		for i := range head {
			if head[i] != seen[i] {
				return fmt.Errorf("early-stop prefix diverges at %d", i)
			}
		}
		cnt, err := parts.Count(tx)
		if err != nil {
			return err
		}
		if cnt != n {
			return fmt.Errorf("count %d, want %d", cnt, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedMetricsExposition(t *testing.T) {
	db, _ := openShardedDB(t, 2, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, err := parts.Create(tx, &Part{Name: "m"})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := db.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{
		`ode_commits_total`,
		`ode_shard_commits_total{shard="0"}`,
		`ode_shard_commits_total{shard="1"}`,
		`ode_shard_wal_bytes{shard="0"}`,
		`ode_shard_wal_fsync_latency_ns_bucket{shard="1",le=`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	ms := db.Metrics()
	if ms.Commits == 0 || ms.CommitLatency.Count == 0 {
		t.Fatalf("aggregated metrics empty: %+v", ms.Stats)
	}

	// A cross-shard Update counts once, in ode_commits_total, and on no
	// shard; the per-shard counts sum to the single-shard commits.
	a, b := crossShardPair(t, db, parts)
	perShard := func() []uint64 {
		var out []uint64
		for _, sm := range db.coord.Shards() {
			out = append(out, sm.Metrics().Commits.Load())
		}
		return out
	}
	shardsBefore, totalBefore := perShard(), db.Stats().Commits
	if err := setRevs(db, 1, a, b); err != nil {
		t.Fatal(err)
	}
	if got := perShard(); !slices.Equal(got, shardsBefore) {
		t.Errorf("per-shard commits moved from %v to %v on a cross-shard Update", shardsBefore, got)
	}
	if got := db.Stats().Commits; got != totalBefore+1 {
		t.Errorf("ode_commits_total moved from %d to %d on a cross-shard Update, want +1", totalBefore, got)
	}
}

// TestSoakShardedWriters is the sharded concurrency soak: 16 writers on
// 4 shards, each owning some objects and growing versions, with
// occasional cross-shard transactions. Afterwards every object's
// temporal and derived-from chains must be strictly linear (this
// workload never branches), which the full integrity check asserts —
// run it under -race via `make soak`.
func TestSoakShardedWriters(t *testing.T) {
	db, dir := openShardedDB(t, 4, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers  = 16
		perTxn   = 6
		versions = 12
	)
	ptrs := make([]Ptr[Part], writers)
	for i := range ptrs {
		i := i
		if err := db.Update(func(tx *Tx) error {
			var err error
			ptrs[i], err = parts.Create(tx, &Part{Name: fmt.Sprintf("w%d", i)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rev := 1; rev <= versions; rev++ {
				err := db.Update(func(tx *Tx) error {
					v, err := ptrs[w].NewVersion(tx)
					if err != nil {
						return err
					}
					if err := v.Set(tx, &Part{Name: fmt.Sprintf("w%d", w), Rev: rev}); err != nil {
						return err
					}
					// Every few revisions, also touch a neighbour's
					// object: a cross-shard commit whenever the two
					// OIDs land on different shards.
					if rev%perTxn == 0 {
						other := ptrs[(w+1)%writers]
						u, err := other.Deref(tx)
						if err != nil {
							return err
						}
						return other.Set(tx, u)
					}
					return nil
				})
				if err != nil {
					errs[w] = fmt.Errorf("writer %d rev %d: %w", w, rev, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Linear chains: each object's temporal order walks back through
	// every version with no branches in the derivation tree beyond the
	// in-place updates (which create no versions).
	if err := db.View(func(tx *Tx) error {
		for w := range ptrs {
			o := ptrs[w].OID()
			vs, err := tx.ctx.Versions(o)
			if err != nil {
				return err
			}
			if len(vs) != versions+1 {
				return fmt.Errorf("writer %d: %d versions, want %d", w, len(vs), versions+1)
			}
			leaves, err := tx.ctx.Leaves(o)
			if err != nil {
				return err
			}
			if len(leaves) != 1 {
				return fmt.Errorf("writer %d: %d leaves, chain branched", w, len(leaves))
			}
			hist, err := tx.ctx.History(o, leaves[0])
			if err != nil {
				return err
			}
			if len(hist) != versions+1 {
				return fmt.Errorf("writer %d: history %d, want %d", w, len(hist), versions+1)
			}
			// Temporal chain: stamps strictly increase along Versions.
			var last Stamp
			for _, v := range vs {
				info, err := tx.ctx.Info(o, v)
				if err != nil {
					return err
				}
				if info.Stamp <= last && last != 0 {
					return fmt.Errorf("writer %d: stamps not increasing", w)
				}
				last = info.Stamp
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Survives a reopen with everything intact.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	if st.Objects != writers || st.Versions != uint64(writers*(versions+1)) {
		t.Fatalf("after reopen: %d objects, %d versions", st.Objects, st.Versions)
	}
}

// TestShardedExtentMergeDuringCrossShard2PC is the regression net over
// the PR 5 fix that made the cross-shard streaming Extent merge read
// one torn-free published epoch: while writers land cross-shard 2PC
// commits that create new objects and touch two shards per
// transaction, every concurrent extent scan must be globally ordered,
// duplicate-free, and include every object whose commit completed
// before the scan's View began.
func TestShardedExtentMergeDuringCrossShard2PC(t *testing.T) {
	db, _ := openShardedDB(t, 4, nil)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 4
		perWriter = 30
	)
	// Each writer gets an anchor pair pinned to different shards so
	// every iteration's Update is a genuine 2PC commit.
	anchorsA := make([]Ptr[Part], writers)
	anchorsB := make([]Ptr[Part], writers)
	var (
		mu        sync.Mutex
		committed []OID
	)
	for w := range anchorsA {
		anchorsA[w], anchorsB[w] = crossShardPair(t, db, parts)
		committed = append(committed, anchorsA[w].OID(), anchorsB[w].OID())
	}

	snapshot := func() []OID {
		mu.Lock()
		defer mu.Unlock()
		return append([]OID(nil), committed...)
	}

	var wg sync.WaitGroup
	writerErrs := make([]error, writers)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := anchorsA[w], anchorsB[w]
			for i := 0; i < perWriter; i++ {
				var created Ptr[Part]
				err := db.Update(func(tx *Tx) error {
					var err error
					// Create + two updates on distinct shards: the
					// commit prepares several shards and decides
					// through the coordinator log.
					if created, err = parts.Create(tx, &Part{Name: fmt.Sprintf("c%d-%d", w, i)}); err != nil {
						return err
					}
					if err := a.Modify(tx, func(p *Part) { p.Rev++ }); err != nil {
						return err
					}
					return b.Modify(tx, func(p *Part) { p.Rev++ })
				})
				if err != nil {
					writerErrs[w] = fmt.Errorf("writer %d iter %d: %w", w, i, err)
					return
				}
				// Only after Update returns is the commit's epoch
				// published; from here on every scan must see it.
				mu.Lock()
				committed = append(committed, created.OID())
				mu.Unlock()
			}
		}()
	}

	scanErr := make(chan error, 1)
	go func() {
		defer close(scanErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mustSee := snapshot()
			var seen []OID
			err := db.View(func(tx *Tx) error {
				if err := parts.Extent(tx, func(p Ptr[Part]) (bool, error) {
					seen = append(seen, p.OID())
					return true, nil
				}); err != nil {
					return err
				}
				// Early-stop inside the same View pins the same merge
				// sources: the prefix must match the full scan.
				k := len(seen)/2 + 1
				var head []OID
				if err := parts.Extent(tx, func(p Ptr[Part]) (bool, error) {
					head = append(head, p.OID())
					return len(head) < k, nil
				}); err != nil {
					return err
				}
				if len(head) != k {
					return fmt.Errorf("early stop yielded %d oids, want %d", len(head), k)
				}
				for i := range head {
					if head[i] != seen[i] {
						return fmt.Errorf("early-stop prefix diverges at %d: %v vs %v", i, head[i], seen[i])
					}
				}
				return nil
			})
			if err != nil {
				scanErr <- err
				return
			}
			for i := 1; i < len(seen); i++ {
				if seen[i] <= seen[i-1] {
					scanErr <- fmt.Errorf("extent not globally ordered/duplicate-free at %d: %v after %v", i, seen[i], seen[i-1])
					return
				}
			}
			have := make(map[OID]bool, len(seen))
			for _, o := range seen {
				have[o] = true
			}
			for _, o := range mustSee {
				if !have[o] {
					scanErr <- fmt.Errorf("extent scan missing %v, committed before the View began", o)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err, ok := <-scanErr; ok && err != nil {
		t.Fatal(err)
	}
	for _, err := range writerErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiescent: the final scan is exactly the committed set.
	final := snapshot()
	sort.Slice(final, func(i, j int) bool { return final[i] < final[j] })
	if err := db.View(func(tx *Tx) error {
		var seen []OID
		if err := parts.Extent(tx, func(p Ptr[Part]) (bool, error) {
			seen = append(seen, p.OID())
			return true, nil
		}); err != nil {
			return err
		}
		if len(seen) != len(final) {
			return fmt.Errorf("final extent has %d oids, want %d", len(seen), len(final))
		}
		for i := range seen {
			if seen[i] != final[i] {
				return fmt.Errorf("final extent diverges at %d: %v vs %v", i, seen[i], final[i])
			}
		}
		n, err := parts.Count(tx)
		if err != nil {
			return err
		}
		if n != len(final) {
			return fmt.Errorf("final count %d, want %d", n, len(final))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNoSyncCrossShardCommitsCheckpoint: a cross-shard commit ends no
// committer batch of its own, so its checkpoint is kicked by its
// participants' prepare batches — under NoSync as with fsync on. A
// database whose every Update spans both of its shards once never
// checkpointed at all: the logs and the dirty pages grew until Close.
func TestNoSyncCrossShardCommitsCheckpoint(t *testing.T) {
	const limit = 256 << 10
	db, _ := openShardedDB(t, 2, &Options{NoSync: true, CheckpointBytes: limit})
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	shardOf := func(p Ptr[Part]) int { return db.Engine().Coordinator().Map().ShardOf(uint64(p.OID())) }
	create := func() (p Ptr[Part]) {
		t.Helper()
		if err := db.Update(func(tx *Tx) (err error) {
			p, err = parts.Create(tx, &Part{Name: "p"})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := create(), create()
	for shardOf(b) == shardOf(a) {
		b = create()
	}
	body := strings.Repeat("x", 1024)
	before := db.Stats().Checkpoints
	var maxWAL int64
	for i := 0; i < 3000; i++ {
		if err := db.Update(func(tx *Tx) error {
			for _, p := range []Ptr[Part]{a, b} {
				v, err := p.NewVersion(tx)
				if err != nil {
					return err
				}
				if err := v.Set(tx, &Part{Name: body, Rev: i}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			maxWAL = max(maxWAL, db.Stats().WALBytes)
		}
	}
	st := db.Stats()
	if st.Checkpoints == before {
		t.Errorf("3000 cross-shard commits, %d WAL bytes, %d dirty pages, and no automatic checkpoint",
			st.WALBytes, db.Metrics().DirtyPages)
	}
	// Each shard's log is reset once it passes the limit, and the
	// decision log (a few bytes a commit) by the commit that takes it
	// there.
	if maxWAL > 3*limit {
		t.Errorf("WAL reached %d bytes with CheckpointBytes = %d on each of 2 shards", maxWAL, limit)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
