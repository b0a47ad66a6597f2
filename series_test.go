package ode

// The series table's own invariants: what lets DB.Metrics and
// DB.WriteMetrics be loops over it.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/txn"
)

// leafFields collects the names of the exported leaf fields of a struct
// type, fields of embedded structs included.
func leafFields(t reflect.Type, into map[string]bool) {
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Anonymous {
			leafFields(f.Type, into)
		} else if f.IsExported() {
			into[f.Name] = true
		}
	}
}

// TestSeriesDeclaredOnce: over the three tables — the registries' cells,
// the series the snapshot or the database supplies, the per-shard
// families — a name is declared once, and every exported field of Metrics
// (Stats' included) is reported by exactly one row.
func TestSeriesDeclaredOnce(t *testing.T) {
	// `make loc` prints this line.
	t.Logf("%d series are declared: %d registry cells, %d from the snapshot or the database, %d per shard",
		len(obs.Registry)+len(seriesTable)+len(shardSeriesTable), len(obs.Registry), len(seriesTable), len(shardSeriesTable))
	seen := map[string]bool{}
	declare := func(name, help, prefix string) {
		t.Helper()
		if !strings.HasPrefix(name, prefix) {
			t.Errorf("%s: a name here starts with %s", name, prefix)
		}
		if help == "" {
			t.Errorf("%s: no help text", name)
		}
		if seen[name] {
			t.Errorf("%s: declared twice", name)
		}
		seen[name] = true
	}
	fields := map[string]bool{}
	leafFields(reflect.TypeOf(Metrics{}), fields)
	fed := map[string]int{}
	for _, s := range obs.Registry {
		declare(s.Name, s.Help, "ode_")
		if fields[s.Field] {
			fed[s.Field]++
		}
	}
	for _, s := range seriesTable {
		declare(s.name, s.help, "ode_")
		switch {
		case (s.field == "") == (s.gauge == nil):
			t.Errorf("%s: its value is a field of the snapshot or a gauge off the database, one of the two", s.name)
		case s.field != "" && !fields[s.field]:
			t.Errorf("%s: Metrics has no field %s", s.name, s.field)
		case s.field != "":
			fed[s.field]++
		}
	}
	for _, s := range shardSeriesTable {
		declare(s.name, s.help, "ode_shard_")
	}
	for name := range fields {
		if fed[name] != 1 {
			t.Errorf("Metrics.%s is reported by %d rows, want 1", name, fed[name])
		}
	}
}

// exerciseEverything drives a two-shard delta-tier database through what
// the registry series count: commits on one shard and on both, aborts,
// reads, walks, demotions, a compaction sweep, checkpoints — in a pool of
// 16 pages, so that it evicts and faults, with a log limit a few commits
// reach.
func exerciseEverything(t *testing.T) *DB {
	t.Helper()
	db, _ := openShardedDB(t, 2, &Options{DeltaTier: true, AnchorInterval: 4, PoolPages: 16, CheckpointBytes: 32 << 10})
	statsScript(t, db, 5, 3)
	parts, err := Register[Part](db, "Part")
	if err != nil {
		t.Fatal(err)
	}
	var ps []Ptr[Part]
	for i := 0; i < 32; i++ {
		if err := db.Update(func(tx *Tx) error {
			p, err := parts.Create(tx, &Part{Name: strings.Repeat("n", 600)})
			ps = append(ps, p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for rev := 1; rev <= 12; rev++ {
		if err := db.Update(func(tx *Tx) error {
			for _, p := range ps { // both shards: two-phase commit
				v, err := p.NewVersion(tx)
				if err != nil {
					return err
				}
				if err := v.Set(tx, &Part{Name: strings.Repeat("n", 600), Rev: rev}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.View(func(tx *Tx) error {
		for _, p := range ps {
			v, err := p.Pin(tx)
			if err != nil {
				return err
			}
			if _, err := v.History(tx); err != nil {
				return err
			}
			if _, _, err := tx.AsOfWalk(p.OID(), 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	exerciseRestarts(t, db, ps)
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db
}

// exerciseRestarts counts each restart series: a join below a held shard
// that wins its try-lock, one that loses it to a writer parked on the
// lower shard, and an attempt a shard-map flip overtakes.
func exerciseRestarts(t *testing.T, db *DB, ps []Ptr[Part]) {
	t.Helper()
	var on [2]OID // an object on each shard
	for _, p := range ps {
		on[uint64(p.OID())>>54] = p.OID()
	}
	touch := func(tx *Tx, shards []int) error {
		for _, s := range shards {
			if _, err := tx.VersionCount(on[s]); err != nil {
				return err
			}
		}
		return nil
	}
	// park runs an Update that joins the shards in before, waits on its
	// first attempt until resume is called, then joins those in after.
	park := func(before, after []int) (resume func()) {
		parked, unpark, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		first := true
		go func() {
			done <- db.Update(func(tx *Tx) error {
				if err := touch(tx, before); err != nil {
					return err
				}
				if first {
					first = false
					close(parked)
					<-unpark
				}
				return touch(tx, after)
			})
		}()
		<-parked
		return func() {
			close(unpark)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Update(func(tx *Tx) error { return touch(tx, []int{1, 0}) }); err != nil {
		t.Fatal(err)
	}
	resume := park([]int{0}, nil)
	done := make(chan error, 1)
	go func() { done <- db.Update(func(tx *Tx) error { return touch(tx, []int{1, 0}) }) }()
	for deadline := time.Now().Add(10 * time.Second); db.coord.Metrics().RestartsJoinOrder.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no join-order restart")
		}
	}
	resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	resume = park([]int{0}, []int{1})
	lo := storage.SlotBase(1) + 1<<40
	if err := db.coord.Write(func(w *txn.WriteTx) error {
		if _, err := w.Join(1); err != nil {
			return err
		}
		w.SetShardMap(w.Map().Assign(lo, lo+1<<20, 1))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	resume()
}

// unexercised names the series exerciseEverything leaves at zero: gauges
// that are back there once it is done, and counts of what it does not do
// — drop tracer events, lower the anchor interval across a reopen, fill
// three quarters of a pool before the log reaches its limit.
var unexercised = map[string]bool{
	"ode_active_readers":                   true,
	"ode_pool_dirty_pages":                 true,
	"ode_snapshot_pages":                   true,
	"ode_tracer_dropped_total":             true,
	"ode_delta_promotions_total":           true,
	"ode_checkpoints_by_dirty_pages_total": true,
}

// bump records one unit in the cell of r that s declares.
func bump(r *obs.Metrics, s obs.Series) {
	switch c := reflect.ValueOf(r).Elem().FieldByName(s.Field).Addr().Interface().(type) {
	case *obs.Counter:
		c.Inc()
	case *obs.Gauge:
		c.Inc()
	case *obs.Histogram:
		c.Observe(1)
	}
}

// TestSeriesScopes holds the cells' scope tags to the code on both sides
// of them. The recording sites: after a workload that reaches all of
// them, a cell is non-zero only in registries its scope names (a
// shard-scoped fact counted at the coordinator, or the reverse, would be
// missing from its total). The readers: a unit recorded in a registry
// moves a series' total exactly when its scope names that registry.
func TestSeriesScopes(t *testing.T) {
	db := exerciseEverything(t)
	coord := db.coord.Metrics()
	shard0, shard1 := db.coord.Shards()[0].Metrics(), db.coord.Shards()[1].Metrics()
	isZero := func(s obs.Series, r *obs.Metrics) bool {
		h, isHist := s.Read(r).(HistSnapshot)
		return reflect.ValueOf(s.Read(r)).IsZero() || isHist && h.Count == 0
	}
	for _, s := range obs.Registry {
		if !s.PerDB && !isZero(s, coord) {
			t.Errorf("%s is scoped to the shards, and something records it at the coordinator", s.Name)
		}
		if !s.PerShard && !(isZero(s, shard0) && isZero(s, shard1)) {
			t.Errorf("%s is scoped to the database, and something records it on a shard", s.Name)
		}
		if isZero(s, coord) && isZero(s, shard0) && isZero(s, shard1) && !unexercised[s.Name] {
			t.Errorf("%s: the workload never recorded it, so this test says nothing about where it is recorded", s.Name)
		}
		for _, r := range []struct {
			reg     *obs.Metrics
			inScope bool
			what    string
		}{{coord, s.PerDB, "the coordinator's registry"}, {shard1, s.PerShard, "a shard's registry"}} {
			before := db.total(s)
			bump(r.reg, s)
			if moved := !reflect.DeepEqual(before, db.total(s)); moved != r.inScope {
				t.Errorf("%s: a unit recorded in %s moved the total: %v, want %v", s.Name, r.what, moved, r.inScope)
			}
		}
	}
}

// TestSeriesRenderedOnce: the page is the tables — every row a family,
// every family a row.
func TestSeriesRenderedOnce(t *testing.T) {
	db := exerciseEverything(t)
	var page bytes.Buffer
	if err := db.WriteMetrics(&page); err != nil {
		t.Fatal(err)
	}
	rendered := map[string]int{}
	for _, line := range strings.Split(page.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			rendered[strings.Fields(rest)[0]]++
		}
	}
	rows := 0
	want := func(name string) {
		rows++
		if rendered[name] != 1 {
			t.Errorf("%s rendered %d times, want 1", name, rendered[name])
		}
	}
	for _, s := range obs.Registry {
		want(s.Name)
	}
	for _, s := range seriesTable {
		want(s.name)
	}
	for _, s := range shardSeriesTable {
		want(s.name)
	}
	if len(rendered) != rows {
		t.Errorf("%d families rendered from %d rows", len(rendered), rows)
	}
	// The page and the snapshot are one reading of the same rows.
	ms := db.Metrics()
	if ms.PoolHits == 0 || ms.CommitLatency.Count == 0 || ms.AllocIDs == 0 || ms.AllocIDs != db.Stats().AllocIDs {
		t.Errorf("snapshot not filled from the table: %d pool hits, %d commit latencies, %d/%d ids",
			ms.PoolHits, ms.CommitLatency.Count, ms.AllocIDs, db.Stats().AllocIDs)
	}
}
