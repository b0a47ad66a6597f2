package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ode"
	"ode/internal/faultfs"
)

func smokeConfig(t *testing.T) config {
	return config{seed: 1, seconds: 10, scale: 0.005, clients: 2, workdir: t.TempDir()}
}

// Every workload, in both modes, emits exactly the metrics BENCHMARK.json
// declares for that mode, each once and in the declared unit, and no
// operation fails.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	var declaredWorkloads []string
	for _, w := range spec.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(declaredWorkloads, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declaredWorkloads, have)
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			want  []declared
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			cfg := smokeConfig(t)
			cfg.trace = mode.trace
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, mode.trace, res.failed, res.attempted, res.firstErr)
			}
			units := map[string]string{}
			for _, c := range res.cells {
				if _, dup := units[c.Name]; dup {
					t.Errorf("%s trace=%v: %s emitted twice", w.name, mode.trace, c.Name)
				}
				units[c.Name] = c.Unit
			}
			for _, d := range mode.want {
				if unit, ok := units[d.Name]; !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, mode.trace, d.Name)
				} else if unit != d.Unit {
					t.Errorf("%s: %s in %q, declared %q", w.name, d.Name, unit, d.Unit)
				}
				delete(units, d.Name)
			}
			for name := range units {
				t.Errorf("%s trace=%v: %s emitted but not declared", w.name, mode.trace, name)
			}
			if !mode.trace {
				for _, c := range res.cells {
					if c.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, c.Name, c.Value)
					}
				}
			}
		}
	}
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		a, b := w.genOps(7, 1, 5000), w.genOps(7, 1, 5000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 client 1 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, w.genOps(8, 1, 5000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if reflect.DeepEqual(a, w.genOps(7, 0, 5000)) {
			t.Errorf("%s: clients 0 and 1 gave the same stream", w.name)
		}
	}
}

func TestPercentileAgainstSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(50) // many ties
		}
		slices.Sort(xs)
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
			// Reference: the smallest sample with at least q·n samples
			// at or below it, found by counting.
			want := xs[n-1]
			for _, x := range xs {
				atOrBelow := 0
				for _, y := range xs {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(xs, q); got != float64(want) {
				t.Errorf("n=%d q=%v: percentile %v, reference %d", n, q, got, want)
			}
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

func smallStore(t *testing.T, name string) *store {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setup(w.scaled(0.005), filepath.Join(t.TempDir(), "db"), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.discard() })
	return s
}

// The checker bites: one flipped payload byte in the store fails reads
// and the final sweep.
func TestFlippedPayloadByteIsCounted(t *testing.T) {
	s := smallStore(t, "hot-read")
	clean := measure(s, 1, 2000, false)
	if clean.failed != 0 {
		t.Fatalf("clean store: %d failed: %v", clean.failed, clean.firstErr)
	}
	err := s.db.Update(func(tx *ode.Tx) error {
		for _, p := range s.ptrs {
			b, err := p.Deref(tx)
			if err != nil {
				return err
			}
			bad := slices.Clone(*b)
			bad[len(bad)-1] ^= 1
			if err := p.Set(tx, &bad); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := measure(s, 1, 2000, false)
	if p.failed != p.attempted {
		t.Errorf("every read of a corrupt store must fail: %d of %d did", p.failed, p.attempted)
	}
	if p.firstErr == nil || !strings.Contains(p.firstErr.Error(), "checksum") {
		t.Errorf("first failure %v, want a checksum mismatch", p.firstErr)
	}
	var sweep tally
	finish(s, &sweep)
	if sweep.failed == 0 {
		t.Error("the final sweep missed the corruption")
	}
}

// The checker bites: acknowledged commits cut from the power-cut
// survivor's logs are counted as lost writes.
func TestDroppedAckedCommitIsCounted(t *testing.T) {
	w, err := findWorkload("durable-commit")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t)
	cfg.scale = 0.05
	var intact tally
	if _, err := recoveryPhase(w, cfg, cfg.workdir, &intact, nil); err != nil {
		t.Fatal(err)
	}
	if intact.failed != 0 {
		t.Fatalf("intact survivor: %d failed: %v", intact.failed, intact.firstErr)
	}
	var cut tally
	_, err = recoveryPhase(w, cfg, cfg.workdir, &cut, func(survivor *faultfs.Mem, dir string) {
		names, err := survivor.ReadDir(dir)
		if err != nil {
			t.Error(err)
		}
		for _, name := range names {
			if !strings.HasPrefix(name, "wal.") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := survivor.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Error(err)
				continue
			}
			size, _ := f.Size()
			if err := f.Truncate(size / 2); err != nil {
				t.Error(err)
			}
			f.Sync()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cut.failed == 0 {
		t.Fatal("half of every log cut away and no lost write counted")
	}
	if !strings.Contains(cut.firstErr.Error(), "lost") {
		t.Errorf("first failure %v, want a lost acknowledged write", cut.firstErr)
	}
}
