package ode

// The exposition contract: which families /metrics renders, with what
// help text, type and label sets, is an interface dashboards are built
// on. testdata/metrics/contract_shards{1,4}.txt are captured by this
// test (-update-metrics-contract), first at the commit before the series
// table existed and again whenever families are added on purpose; the
// page must render the same, give or take the names listed here.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateMetricsContract = flag.Bool("update-metrics-contract", false, "rewrite testdata/metrics/contract_shards*.txt from this build's /metrics page")

// contractAdded names the families this build renders that the capture
// does not hold; contractPruned the ones the capture holds and this
// build no longer renders.
var (
	contractAdded  = []string{}
	contractPruned = []string{}
)

// expositionShape reduces a /metrics page to what the contract covers:
// every # HELP and # TYPE line, and every sample's name and label set
// with its value cut off. A histogram's finite le buckets are dropped —
// which of them appear depends on the latencies observed — leaving its
// +Inf bucket, sum and count.
func expositionShape(page string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if !strings.HasPrefix(line, "#") {
			if strings.Contains(line, `le="`) && !strings.Contains(line, `le="+Inf"`) {
				continue
			}
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// withoutFamilies drops the lines of the named families from a shape.
func withoutFamilies(shape, names []string) []string {
	var out []string
	for _, line := range shape {
		fields := strings.FieldsFunc(strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE "), func(r rune) bool {
			return r == ' ' || r == '{'
		})
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fields[0], "_bucket"), "_sum"), "_count")
		drop := false
		for _, n := range names {
			drop = drop || fields[0] == n || family == n
		}
		if !drop {
			out = append(out, line)
		}
	}
	return out
}

func TestMetricsExpositionContract(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openDB(t, &Options{Shards: shards, CheckpointBytes: -1})
			statsScript(t, db, 5, 3)
			var page bytes.Buffer
			if err := db.WriteMetrics(&page); err != nil {
				t.Fatal(err)
			}
			got := expositionShape(page.String())
			golden := filepath.Join("testdata", "metrics", fmt.Sprintf("contract_shards%d.txt", shards))
			if *updateMetricsContract {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			want := withoutFamilies(strings.Split(strings.TrimSpace(string(raw)), "\n"), contractPruned)
			rest := withoutFamilies(got, contractAdded)
			if len(contractAdded) > 0 && len(rest) == len(got) {
				t.Errorf("none of %v is rendered", contractAdded)
			}
			got = rest
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("exposition shape changed.\n--- only in the capture:\n%s\n--- only in this build:\n%s",
					strings.Join(setMinus(want, got), "\n"), strings.Join(setMinus(got, want), "\n"))
			}
		})
	}
}

// setMinus returns the lines of a that b lacks.
func setMinus(a, b []string) []string {
	in := map[string]bool{}
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}
