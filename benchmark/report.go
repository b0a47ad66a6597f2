package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchmarkSpec is the part of BENCHMARK.json the tool itself reads:
// the bounds -repeat and -compare judge by.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// benchmarkJSON is read from the directory the command runs in: the
// repository root.
const benchmarkJSON = "BENCHMARK.json"

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func (s *benchmarkSpec) endToEnd(name string) (declared, bool) {
	i := slices.IndexFunc(s.EndToEnd, func(d declared) bool { return d.Name == name })
	if i < 0 {
		return declared{}, false
	}
	return s.EndToEnd[i], true
}

// failedShare is the cell a report carries per workload beside the
// declared metrics (the result line has it as failed and attempted), so
// that -compare can refuse any rise in it.
const failedShare = "failed_op_share"

// report is the one schema of every result file.
type report struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Loadavg    string  `json:"loadavg"`
	Cells      []cell  `json:"cells"`
}

func writeReport(path string, cfg config, loadavg string, cells []cell) error {
	rev := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	raw, err := json.MarshalIndent(report{
		GitRev: rev, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Scale: cfg.scale,
		Seconds: cfg.seconds, Loadavg: loadavg, Cells: cells,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// reportCells is a set's cells plus each workload's failed share.
func reportCells(set []*result) []cell {
	var cells []cell
	for _, res := range set {
		cells = append(cells, res.cells...)
		cells = append(cells, cell{res.workload, failedShare, "ratio",
			float64(res.failed) / float64(res.attempted), res.attempted, 0})
	}
	return cells
}

// summarise folds repeated sets into one cell per metric — the median,
// with the spread of the repeats — prints each, and reports an error if
// an end-to-end cell's spread exceeds its bound: the metric is then too
// unsteady to guard with that bound.
func summarise(sets [][]*result) ([]cell, error) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		return nil, err
	}
	var folded []cell
	var unsteady []string
	fmt.Printf("== %d repeats: min / median / max, spread\n", len(sets))
	for i, first := range reportCells(sets[0]) {
		values := make([]float64, len(sets))
		for k, set := range sets {
			values[k] = reportCells(set)[i].Value
		}
		c := first
		c.Value, c.N, c.Spread = median(values), len(values), spread(values)
		folded = append(folded, c)
		fmt.Printf("%-14s %-14s %12.6g %12.6g %12.6g %-6s %6.2f%%\n", c.Workload, c.Name,
			slices.Min(values), c.Value, slices.Max(values), c.Unit, 100*c.Spread)
		if d, ok := spec.endToEnd(c.Name); ok && c.Spread > d.Bound {
			unsteady = append(unsteady, fmt.Sprintf("%s %s: spread %.1f%% over bound %.1f%%",
				c.Workload, c.Name, 100*c.Spread, 100*d.Bound))
		}
	}
	if unsteady != nil {
		return folded, errors.New("not repeatable: " + strings.Join(unsteady, "; "))
	}
	return folded, nil
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end cell: worse or better when the change
// exceeds the metric's bound, unresolved when the old side's own spread
// already does.
func verdict(d declared, old, cur cell) string {
	if old.Value == 0 {
		return "unresolved"
	}
	worse := (cur.Value - old.Value) / old.Value
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case old.Spread > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints a verdict per end-to-end cell present in both
// files and fails on any worse cell or any rise in a failed share.
// Per-layer cells have no bound and are listed with their change only.
func compareFiles(oldPath, newPath string) error {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		return err
	}
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, c := range cur.Cells {
		i := slices.IndexFunc(old.Cells, func(o cell) bool { return o.Workload == c.Workload && o.Name == c.Name })
		if i < 0 {
			continue
		}
		o := old.Cells[i]
		v := "-"
		if d, ok := spec.endToEnd(c.Name); ok {
			v = verdict(d, o, c)
		} else if c.Name == failedShare && c.Value > o.Value {
			v = "worse"
		}
		if v == "worse" {
			bad++
		}
		fmt.Printf("%-14s %-34s %14.6g -> %14.6g %-9s %+7.2f%%  %s\n", c.Workload, c.Name,
			o.Value, c.Value, c.Unit, 100*ratio(c.Value-o.Value, o.Value), v)
	}
	if bad > 0 {
		return fmt.Errorf("%d cells worse", bad)
	}
	return nil
}
