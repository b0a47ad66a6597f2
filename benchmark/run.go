package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ode"
	"ode/internal/faultfs"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed     int64
	seconds  float64 // nominal length of the measured phase
	scale    float64 // shrinks object and operation counts; 1 outside smoke runs
	clients  int     // clients of the CPU-bound workloads
	trace    bool
	traceOut string
	workdir  string
}

// cell is one reported number.
type cell struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"` // samples behind the value
	// Spread is set by -repeat: (max − min) ÷ median over the repeats.
	Spread float64 `json:"spread,omitempty"`
}

// tally counts checked operations and keeps the first failure's text.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) note(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) add(attempted, failed int, err error) {
	t.attempted += attempted
	t.failed += failed
	if err != nil {
		t.note(err)
	}
}

// result is one workload's run in one mode.
type result struct {
	tally
	workload string
	cells    []cell
}

func (r *result) put(name, unit string, value float64, n int) {
	r.cells = append(r.cells, cell{r.workload, name, unit, value, n, 0})
}

// setupRepeats is how many times an untraced run sets the store up; the
// reported set-up time is their median and the last store is measured.
const setupRepeats = 3

// warmShare of the measured operations runs untimed first, so caches
// are full and lazy set-up is done when timing starts.
const warmShare = 0.05

// maxTracedOps bounds the spans a traced pass holds in memory.
const maxTracedOps = 400_000

// pass is one timed execution of a workload's operation streams.
type pass struct {
	tally
	ops  [][]op    // per client, the timed operations
	lat  [][]int64 // per client, parallel to ops
	wall time.Duration
	recs []*recorder
	// before and after bracket the timed phase of a traced pass.
	before, after *counters
	snapshotPeak  int64
}

func (p *pass) opsDone() int {
	n := 0
	for _, o := range p.ops {
		n += len(o)
	}
	return n
}

func (p *pass) opsPerSec() float64 { return float64(p.opsDone()) / p.wall.Seconds() }

// measure warms the store up with the head of each client's stream and
// then times the rest.
func measure(s *store, seed int64, total int, traced bool) *pass {
	w := s.w
	per := max(total/w.clients, 20)
	warm := max(int(float64(per)*warmShare), 1)
	p := &pass{ops: make([][]op, w.clients), lat: make([][]int64, w.clients)}
	clients := make([]*client, w.clients)
	streams := make([][]op, w.clients)
	for i := range clients {
		clients[i] = newClient(s, i, nil)
		streams[i] = w.genOps(seed, i, warm+per)
		p.ops[i] = streams[i][warm:]
		p.lat[i] = make([]int64, per)
		s.logs[i].entries = make([]pinned, versionsWritten(streams[i]))
	}
	each := func(fn func(i int, c *client)) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(i, c)
			}()
		}
		wg.Wait()
	}
	each(func(i int, c *client) { c.run(streams[i][:warm], nil) })

	runtime.GC()
	var sampler *peakSampler
	base := time.Now()
	if traced {
		for _, c := range clients {
			c.rec = newRecorder(base, per)
			p.recs = append(p.recs, c.rec)
		}
		sampler = samplePeak(s.db)
		p.before = readCounters(s)
	}
	start := time.Now()
	each(func(i int, c *client) { c.run(p.ops[i], p.lat[i]) })
	p.wall = time.Since(start)
	if traced {
		p.after = readCounters(s)
		p.snapshotPeak = sampler.stop()
	}
	for _, c := range clients {
		p.add(warm+per, c.failed, c.firstErr)
	}
	return p
}

// versionsWritten is the number of versions a stream creates.
func versionsWritten(ops []op) int {
	n := 0
	for _, o := range ops {
		n += o.kind.objects()
	}
	return n
}

// measureChecked is measure followed by finish, both tallied into t.
func measureChecked(s *store, seed int64, total int, traced bool, t *tally) *pass {
	p := measure(s, seed, total, traced)
	t.add(p.attempted, p.failed, p.firstErr)
	finish(s, t)
	return p
}

// finish runs the untimed checks that close a pass: the sweep against
// the acknowledged-write counters and the engine's integrity check.
func finish(s *store, t *tally) {
	checked, failed := s.sweep(t.note)
	t.add(checked, failed, nil)
	if err := s.db.CheckIntegrity(); err != nil {
		t.add(1, 1, fmt.Errorf("integrity: %w", err))
	} else {
		t.add(1, 0, nil)
	}
}

// latencies merges the per-client times of the operations keep selects
// and sorts them for exact percentiles.
func (p *pass) latencies(keep func(opKind) bool) []int64 {
	out := make([]int64, 0, p.opsDone())
	for c, ops := range p.ops {
		for i := range ops {
			if keep(ops[i].kind) {
				out = append(out, p.lat[c][i])
			}
		}
	}
	slices.Sort(out)
	return out
}

// lateOverEarly is the throughput of the last quarter of each client's
// operations over that of the first: below 1 the store slowed as its
// chains deepened.
func (p *pass) lateOverEarly() float64 {
	var early, late float64
	for _, lat := range p.lat {
		q := len(lat) / 4
		if q == 0 {
			return 0
		}
		early += float64(q) / float64(sum(lat[:q]))
		late += float64(q) / float64(sum(lat[len(lat)-q:]))
	}
	return late / early
}

func (w *workload) totalOps(cfg config) int {
	return int(float64(w.rate) * cfg.seconds * cfg.scale)
}

// runWorkload runs one workload in one mode and returns its cells: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func runWorkload(w *workload, cfg config) (*result, error) {
	if cfg.scale != 1 {
		w = w.scaled(cfg.scale)
	}
	if w.cpuBound() {
		c := *w
		c.clients = cfg.clients
		w = &c
	}
	// The peak-memory metric is this workload's alone: hand back what
	// earlier workloads of the invocation left and restart the kernel's
	// high-water mark (a no-op where the kernel has no clear_refs).
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	res := &result{workload: w.name}
	dir := filepath.Join(cfg.workdir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var err error
	if cfg.trace {
		err = runTraced(w, cfg, dir, res)
	} else {
		err = runUntraced(w, cfg, dir, res)
	}
	return res, err
}

func runUntraced(w *workload, cfg config, dir string, res *result) error {
	var s *store
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if s != nil {
			if err := s.discard(); err != nil {
				return err
			}
			runtime.GC() // the discarded store's memory is not this set-up's
		}
		start := time.Now()
		var err error
		if s, err = setup(w, filepath.Join(dir, "db"), cfg.seed, fsFor(w, nil), nil); err != nil {
			return err
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer s.discard()

	p := measureChecked(s, cfg.seed, w.totalOps(cfg), false, &res.tally)
	if err := s.db.Checkpoint(); err != nil {
		return err
	}
	disk, err := s.diskBytes()
	if err != nil {
		return err
	}
	// Read before the recovery phase: its in-memory device is the
	// harness's memory, not the store's.
	hwm, err := peakMemoryMB()
	if err != nil {
		return err
	}
	if w.recovery {
		if _, err := recoveryPhase(w, cfg, dir, &res.tally, nil); err != nil {
			return err
		}
	}

	all := p.latencies(func(opKind) bool { return true })
	res.put("setup_s", "s", median(setups), len(setups))
	res.put("ops_per_s", "1/s", p.opsPerSec(), len(all))
	res.put("op_p50_us", "us", percentile(all, 0.50)/1e3, len(all))
	res.put("space_amp", "ratio", float64(disk)/float64(s.liveBytes()), 1)
	res.put("mem_peak_mb", "MB", hwm, 1)
	return nil
}

// runTraced measures the workload twice at half length on two identical
// fresh stores — untraced, then with spans and counters — and runs the
// layer probes. The untraced half gives the read/write percentiles and
// the base of the tracing overhead.
func runTraced(w *workload, cfg config, dir string, res *result) error {
	total := min(w.totalOps(cfg)/2, maxTracedOps)

	s, err := setup(w, filepath.Join(dir, "db"), cfg.seed, fsFor(w, nil), nil)
	if err != nil {
		return err
	}
	plain := measureChecked(s, cfg.seed, total, false, &res.tally)
	if err := s.discard(); err != nil {
		return err
	}

	counts := new(deviceCounts)
	if s, err = setup(w, filepath.Join(dir, "db"), cfg.seed, fsFor(w, counts), counts); err != nil {
		return err
	}
	defer s.discard()
	traced := measureChecked(s, cfg.seed, total, true, &res.tally)
	payload, err := s.db.Engine().PayloadStats()
	if err != nil {
		return err
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, traced.recs); err != nil {
			return err
		}
	}
	var recovered time.Duration
	if w.recovery {
		if recovered, err = recoveryPhase(w, cfg, dir, &res.tally, nil); err != nil {
			return err
		}
	}

	reads := plain.latencies(func(k opKind) bool { return !k.isWrite() })
	writes := plain.latencies(opKind.isWrite)
	res.put("ode.read_p50_us", "us", percentile(reads, 0.50)/1e3, len(reads))
	res.put("ode.read_p99_us", "us", percentile(reads, 0.99)/1e3, len(reads))
	res.put("ode.write_p50_us", "us", percentile(writes, 0.50)/1e3, len(writes))
	res.put("ode.write_p99_us", "us", percentile(writes, 0.99)/1e3, len(writes))
	res.put("ode.recover_s", "s", recovered.Seconds(), btoi(w.recovery))
	res.put("ode.trace_overhead_share", "ratio", 1-traced.opsPerSec()/plain.opsPerSec(), 1)
	res.put("core.late_over_early_ops", "ratio", plain.lateOverEarly(), plain.opsDone())
	spanCells(res, traced)
	counterCells(res, s, traced, payload)
	if err := probeCells(res, filepath.Join(dir, "probe"), cfg.scale); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	explained := 0.0
	if w.name == "hot-read" {
		explained = (res.value("txn.read_begin_end_ns") + res.value("derefcache.get_hit_ns")) / percentile(reads, 0.50)
	}
	res.put("ode.hot_read_explained_share", "ratio", explained, btoi(explained != 0))
	return nil
}

func (r *result) value(name string) float64 {
	for _, c := range r.cells {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// recoveryRate is the commits per second of -seconds that the recovery
// phase makes before the power cut.
const recoveryRate = 60

// recoveryPhase is durable-commit's phase B: acknowledged commits on an
// in-memory device, a power cut that discards every byte no flush
// covered, a timed Open of what survived, and a check that every
// acknowledged write is there. sabotage, when set, damages the survivor
// first; the tests use it to show the check bites.
func recoveryPhase(w *workload, cfg config, dir string, t *tally, sabotage func(survivor *faultfs.Mem, dir string)) (time.Duration, error) {
	small := *w
	small.objects = min(w.objects, 256)
	small.syncDelay = 0
	small.options.CheckpointBytes = -1
	mem := faultfs.NewMem()
	path := filepath.Join(dir, "recovery")
	s, err := setup(&small, path, cfg.seed, mem, nil)
	if err != nil {
		return 0, err
	}
	commits := measure(s, cfg.seed+1, int(recoveryRate*cfg.seconds*cfg.scale), false)
	t.add(commits.attempted, commits.failed, commits.firstErr)

	survivor := mem.Crash(false)
	if sabotage != nil {
		sabotage(survivor, path)
	}
	if err := s.db.Close(); err != nil {
		return 0, err
	}
	opts := small.options
	opts.FS = survivor
	start := time.Now()
	db, err := ode.Open(path, &opts)
	took := time.Since(start)
	if err != nil {
		t.add(1, 1, fmt.Errorf("reopen after power cut: %w", err))
		return took, nil
	}
	defer db.Close()
	// The references are ids; they bind to the reopened database as they
	// did to the one that crashed.
	after := &store{w: &small, dir: path, db: db, ptrs: s.ptrs, acked: s.acked}
	finish(after, t)
	return took, nil
}

// peakMemoryMB is the process's peak resident set, VmHWM.
func peakMemoryMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
