// Command benchmark is the repository's benchmark: five version-store
// workloads driven through the public ode API in a closed loop, every
// operation timed by the harness and every result checked. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	name := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase on the reference box; fixes the operation counts")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink object and operation counts (smoke runs)")
	fs.IntVar(&cfg.clients, "clients", 2, "clients of the CPU-bound workloads")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: the end-to-end metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans here as JSON lines (one workload)")
	fs.StringVar(&cfg.workdir, "workdir", ".benchmark_work", "directory for the databases; each run's is removed on exit")
	out := fs.String("out", "", "write every cell to this file as JSON")
	repeat := fs.Int("repeat", 1, "run the untraced pass this many times and check each end-to-end cell's spread against its bound")
	compare := fs.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files: old.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.clients < 1 {
		return errors.New("-seconds, -scale and -clients must be positive")
	}
	// More clients than processors on a CPU-bound workload measures the
	// scheduler's queue, not the store.
	if cfg.clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d exceeds the %d processors", cfg.clients, runtime.NumCPU())
	}
	run := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		run = []*workload{w}
	}
	if cfg.traceOut != "" && (len(run) != 1 || !cfg.trace) {
		return errors.New("-trace-out needs -trace 1 and one -workload")
	}
	if *repeat > 1 && cfg.trace {
		return errors.New("-repeat checks the end-to-end cells; run it with -trace 0")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	defer os.Remove(cfg.workdir)               // removed when this run's were the only databases there
	loadavg, _ := os.ReadFile("/proc/loadavg") // absent off Linux; the run is still valid
	fmt.Fprintf(os.Stderr, "benchmark: seed %d, %.3g s, GOMAXPROCS %d, loadavg %s\n",
		cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), strings.TrimSpace(string(loadavg)))

	var sets [][]*result // one set per repeat, one result per workload
	for i := 0; i < *repeat; i++ {
		var set []*result
		for _, w := range run {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(res)
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	cells := reportCells(sets[0])
	var unsteady error
	if *repeat > 1 {
		cells, unsteady = summarise(sets)
	}
	if *out != "" {
		if err := writeReport(*out, cfg, strings.TrimSpace(string(loadavg)), cells); err != nil {
			return err
		}
	}
	// The last line is the result the driver reads: one workload's, or
	// with several the whole invocation's counts and no metrics.
	last := contractLine(sets[len(sets)-1])
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return unsteady
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(set []*result) contractResult {
	out := contractResult{Metrics: map[string]contractMetric{}}
	for _, res := range set {
		out.Attempted += res.attempted
		out.Failed += res.failed
		if len(set) == 1 {
			for _, c := range res.cells {
				out.Metrics[c.Name] = contractMetric{c.Value, c.Unit}
			}
		}
	}
	out.Correct = out.Failed == 0
	return out
}

func printResult(res *result) {
	fmt.Printf("== %s: %d checked, %d failed\n", res.workload, res.attempted, res.failed)
	if res.firstErr != nil {
		fmt.Printf("   first failure: %v\n", res.firstErr)
	}
	for _, c := range res.cells {
		fmt.Printf("%-34s %16.6g %-9s n=%d\n", c.Name, c.Value, c.Unit, c.N)
	}
}
