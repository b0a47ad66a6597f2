package ode

// Randomized concurrent soak test for the observability layer: N
// goroutines run a mixed NewVersion / delete-version / in-place-update /
// read / history / as-of workload against disjoint objects while an
// in-memory model tracks exactly what each worker was acked. At the end
// every Stats counter and every metrics histogram count must reconcile
// EXACTLY with the model — not approximately: commits, aborts, live
// versions, walk counts, and the commit-latency histogram population
// are all closed-form functions of the op log. Run under -race this is
// also the concurrency stress for the load-ordered Commits/Batches pair
// and the lock-free histograms.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// msoakObject is the model of one object: its live versions in temporal
// order and the payload each was last acked with.
type msoakObject struct {
	oid     OID
	order   []VID          // live versions, temporal (creation) order
	content map[VID][]byte // expected payload per live version
}

func (so *msoakObject) latest() VID { return so.order[len(so.order)-1] }

func (so *msoakObject) remove(v VID) {
	for i, x := range so.order {
		if x == v {
			so.order = append(so.order[:i], so.order[i+1:]...)
			break
		}
	}
	delete(so.content, v)
}

// msoakTally is one worker's op log summary.
type msoakTally struct {
	commits      uint64 // successful Updates (incl. the create batch)
	aborts       uint64 // deliberate rollbacks
	historyCalls uint64 // tx.History invocations
	asofCalls    uint64 // tx.AsOfWalk invocations
	views        uint64 // db.View invocations
}

var errMsoakAbort = errors.New("soak: deliberate abort")

func msoakPayload(rng *rand.Rand) []byte {
	p := make([]byte, 16+rng.Intn(48))
	rng.Read(p)
	return p
}

// msoakWorker runs ops operations against its own disjoint objects.
func msoakWorker(t *testing.T, db *DB, tid TypeID, seed int64, nObjs, ops int) (msoakTally, []*msoakObject, error) {
	rng := rand.New(rand.NewSource(seed))
	var tally msoakTally
	objs := make([]*msoakObject, 0, nObjs)

	// One create commit seeds this worker's objects.
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < nObjs; i++ {
			p := msoakPayload(rng)
			o, v, err := tx.CreateRaw(tid, p)
			if err != nil {
				return err
			}
			objs = append(objs, &msoakObject{
				oid:     o,
				order:   []VID{v},
				content: map[VID][]byte{v: p},
			})
		}
		return nil
	})
	if err != nil {
		return tally, nil, err
	}
	tally.commits++

	for i := 0; i < ops; i++ {
		so := objs[rng.Intn(len(objs))]
		switch op := rng.Intn(100); {
		case op < 30: // newversion with fresh content
			p := msoakPayload(rng)
			var nv VID
			err := db.Update(func(tx *Tx) error {
				var err error
				if nv, err = tx.NewVersion(so.oid); err != nil {
					return err
				}
				return tx.UpdateVersionRaw(so.oid, nv, p)
			})
			if err != nil {
				return tally, nil, err
			}
			tally.commits++
			so.order = append(so.order, nv)
			so.content[nv] = p
		case op < 45: // in-place update of the latest version
			p := msoakPayload(rng)
			var got VID
			err := db.Update(func(tx *Tx) error {
				var err error
				got, err = tx.UpdateLatestRaw(so.oid, p)
				return err
			})
			if err != nil {
				return tally, nil, err
			}
			tally.commits++
			if want := so.latest(); got != want {
				return tally, nil, fmt.Errorf("UpdateLatestRaw hit %v, model latest %v", got, want)
			}
			so.content[got] = p
		case op < 55: // delete one version (only with ≥2 live: a
			// 1-version pdelete removes the whole object, which the
			// model keeps out of this workload on purpose)
			if len(so.order) < 2 {
				continue
			}
			v := so.order[rng.Intn(len(so.order))]
			err := db.Update(func(tx *Tx) error {
				return tx.DeleteVersion(so.oid, v)
			})
			if err != nil {
				return tally, nil, err
			}
			tally.commits++
			so.remove(v)
		case op < 65: // deliberate abort after a real mutation
			err := db.Update(func(tx *Tx) error {
				if _, err := tx.NewVersion(so.oid); err != nil {
					return err
				}
				return errMsoakAbort
			})
			if !errors.Is(err, errMsoakAbort) {
				return tally, nil, fmt.Errorf("abort commit returned %v", err)
			}
			tally.aborts++
		case op < 85: // read a random live version, verify content
			v := so.order[rng.Intn(len(so.order))]
			want := so.content[v]
			err := db.View(func(tx *Tx) error {
				got, err := tx.ReadVersionRaw(so.oid, v)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("version %v content mismatch", v)
				}
				return nil
			})
			if err != nil {
				return tally, nil, err
			}
			tally.views++
		case op < 95: // derivation-history walk from the latest version
			latest := so.latest()
			err := db.View(func(tx *Tx) error {
				h, err := tx.History(so.oid, latest)
				if err != nil {
					return err
				}
				if len(h) == 0 || h[0] != latest {
					return fmt.Errorf("history of %v starts with %v", latest, h)
				}
				return nil
			})
			if err != nil {
				return tally, nil, err
			}
			tally.historyCalls++
			tally.views++
		default: // temporal as-of walk; at the current stamp it must
			// resolve to the model's latest live version
			err := db.View(func(tx *Tx) error {
				v, ok, err := tx.AsOfWalk(so.oid, tx.CurrentStamp())
				if err != nil {
					return err
				}
				if !ok || v != so.latest() {
					return fmt.Errorf("as-of now: got %v ok=%v, want %v", v, ok, so.latest())
				}
				return nil
			})
			if err != nil {
				return tally, nil, err
			}
			tally.asofCalls++
			tally.views++
		}
	}
	return tally, objs, nil
}

// runSoak is one full soak run: open, register, fan out workers, then
// reconcile every counter against the merged model.
func runSoak(t *testing.T, seed int64) {
	t.Helper()
	const (
		workers       = 8
		objsPerWorker = 3
		opsPerWorker  = 80
	)
	// Default options: group commit on, real fsyncs — the batch path is
	// part of what the reconciliation covers. Checkpoints off so the
	// checkpoint count stays a model quantity.
	db := openDB(t, &Options{CheckpointBytes: -1})
	tid, err := db.Engine().RegisterType("SoakBlob")
	if err != nil {
		t.Fatal(err)
	}

	// Reads before the workers start (the engine's at open, this call's
	// own) are not the model's.
	pinsAtStart := db.Metrics().ReaderPins

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		tallies []msoakTally
		model   []*msoakObject
		failed  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tally, objs, err := msoakWorker(t, db, tid, seed*1000+int64(w), objsPerWorker, opsPerWorker)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && failed == nil {
				failed = fmt.Errorf("worker %d: %w", w, err)
			}
			tallies = append(tallies, tally)
			model = append(model, objs...)
		}(w)
	}
	wg.Wait()
	if failed != nil {
		t.Fatal(failed)
	}

	var total msoakTally
	liveVersions := uint64(0)
	for _, tl := range tallies {
		total.commits += tl.commits
		total.aborts += tl.aborts
		total.historyCalls += tl.historyCalls
		total.asofCalls += tl.asofCalls
		total.views += tl.views
	}
	for _, so := range model {
		liveVersions += uint64(len(so.order))
	}

	// Exact reconciliation. The +2 is the two bootstrap commits every
	// fresh database performs: core.New's init-structures transaction
	// and the first RegisterType.
	st := db.Stats()
	ms := db.Metrics()
	wantCommits := total.commits + 2
	if st.Commits != wantCommits {
		t.Errorf("Commits = %d, model %d", st.Commits, wantCommits)
	}
	if st.Aborts != total.aborts {
		t.Errorf("Aborts = %d, model %d", st.Aborts, total.aborts)
	}
	if want := uint64(workers * objsPerWorker); st.Objects != want {
		t.Errorf("Objects = %d, model %d", st.Objects, want)
	}
	if st.Versions != liveVersions {
		t.Errorf("Versions = %d, model %d", st.Versions, liveVersions)
	}
	if st.Checkpoints != 0 {
		t.Errorf("Checkpoints = %d, want 0 (disabled)", st.Checkpoints)
	}
	if st.Batches > st.Commits {
		t.Errorf("Batches (%d) > Commits (%d)", st.Batches, st.Commits)
	}
	if st.Batches == 0 {
		t.Error("grouped run produced no batches")
	}
	// Histogram populations are closed-form: one commit-latency sample
	// per commit; every commit here is non-empty and grouped, so the
	// batch-size histogram sums to the commit count and has one sample
	// per fsync batch; one walk sample per History/AsOfWalk call.
	if ms.CommitLatency.Count != st.Commits {
		t.Errorf("CommitLatency.Count = %d, want %d", ms.CommitLatency.Count, st.Commits)
	}
	if ms.BatchSize.Sum != st.Commits {
		t.Errorf("Sum(BatchSize) = %d, want %d", ms.BatchSize.Sum, st.Commits)
	}
	if ms.BatchSize.Count != st.Batches {
		t.Errorf("BatchSize.Count = %d, want %d", ms.BatchSize.Count, st.Batches)
	}
	if ms.DprevWalkLen.Count != total.historyCalls {
		t.Errorf("DprevWalk.Count = %d, model %d", ms.DprevWalkLen.Count, total.historyCalls)
	}
	if ms.TprevWalkLen.Count != total.asofCalls {
		t.Errorf("TprevWalk.Count = %d, model %d", ms.TprevWalkLen.Count, total.asofCalls)
	}
	// Readers are counted per View, whatever snapshot each shared: the
	// model's Views plus the two reads just above (Stats, and the one
	// inside Metrics). Every one of them built a snapshot or shared one.
	if got, want := ms.ReaderPins-pinsAtStart, total.views+2; got != want {
		t.Errorf("ReaderPins grew by %d, model %d Views + 2", got, total.views)
	}
	if ms.ActiveReaders != 0 {
		t.Errorf("ActiveReaders = %d at rest", ms.ActiveReaders)
	}
	if ms.ReadSnapshotBuilds == 0 || ms.ReadSnapshotBuilds > ms.ReaderPins {
		t.Errorf("ReadSnapshotBuilds = %d for %d reads", ms.ReadSnapshotBuilds, ms.ReaderPins)
	}

	// The surviving structure must match the model object-by-object,
	// and the whole store must still pass the integrity sweep.
	err = db.View(func(tx *Tx) error {
		for _, so := range model {
			vs, err := tx.Versions(so.oid)
			if err != nil {
				return err
			}
			if len(vs) != len(so.order) {
				return fmt.Errorf("%v: %d versions, model %d", so.oid, len(vs), len(so.order))
			}
			for i, v := range vs {
				if v != so.order[i] {
					return fmt.Errorf("%v: version[%d] = %v, model %v", so.oid, i, v, so.order[i])
				}
			}
			latest, err := tx.Latest(so.oid)
			if err != nil {
				return err
			}
			if latest != so.latest() {
				return fmt.Errorf("%v: latest %v, model %v", so.oid, latest, so.latest())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// soakSeeds returns the seeds to soak: the ODE_SOAK_SEEDS environment
// variable as a comma-separated list (e.g. ODE_SOAK_SEEDS=1,2,3,17 for
// a longer hunt; see `make help`), defaulting to the standard three.
// Parsing is strict — mirroring workload.ParseSeeds, which this package
// cannot import (internal/workload imports ode): a typo in the list
// fails the run instead of silently soaking fewer seeds than asked.
func soakSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("ODE_SOAK_SEEDS")
	if strings.TrimSpace(env) == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for i, part := range strings.Split(env, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			t.Fatalf("ODE_SOAK_SEEDS %q: entry %d is empty", env, i+1)
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			t.Fatalf("ODE_SOAK_SEEDS %q: entry %d (%q) is not an integer", env, i+1, part)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

func TestSoakMetricsReconciliation(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSoak(t, seed) })
	}
}
