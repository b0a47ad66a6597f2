package obs

import (
	"strings"
	"testing"
)

// one is the sample list of an unlabeled family.
func one(v any) []Sample { return []Sample{{V: v}} }

func TestWriteCounterAndGauge(t *testing.T) {
	var b strings.Builder
	if err := WriteFamily(&b, "ode_commits_total", "Committed transactions.", "", one(uint64(7))); err != nil {
		t.Fatal(err)
	}
	if err := WriteFamily(&b, "ode_active_readers", "In-flight readers.", "", one(int64(-1))); err != nil {
		t.Fatal(err)
	}
	if err := WriteFamily(&b, "ode_nothing", "No samples, no family.", "shard", nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ode_commits_total counter",
		"ode_commits_total 7",
		"# TYPE ode_active_readers gauge",
		"ode_active_readers -1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ode_nothing") {
		t.Fatalf("a family without samples was rendered:\n%s", out)
	}
}

func TestWriteFamilyRejectsUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a float sample was rendered; the page has no float families")
		}
	}()
	var b strings.Builder
	_ = WriteFamily(&b, "ode_ratio", "A ratio.", "", one(0.5))
}

func TestWriteHistogramCumulativeBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1
	h.Observe(1)
	h.Observe(6) // bucket 3 (le=7)
	var b strings.Builder
	if err := WriteFamily(&b, "ode_commit_latency_ns", "Commit latency.", "", one(h.Snapshot())); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ode_commit_latency_ns histogram",
		`ode_commit_latency_ns_bucket{le="0"} 1`,
		`ode_commit_latency_ns_bucket{le="1"} 3`,
		`ode_commit_latency_ns_bucket{le="3"} 3`, // empty bucket still cumulative
		`ode_commit_latency_ns_bucket{le="7"} 4`,
		`ode_commit_latency_ns_bucket{le="+Inf"} 4`,
		"ode_commit_latency_ns_sum 8",
		"ode_commit_latency_ns_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets past the last non-empty one are elided.
	if strings.Contains(out, `le="15"`) {
		t.Fatalf("empty tail bucket not elided:\n%s", out)
	}
}

func TestWriteHistogramEmpty(t *testing.T) {
	var h Histogram
	var b strings.Builder
	if err := WriteFamily(&b, "ode_empty", "Nothing yet.", "", one(h.Snapshot())); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `ode_empty_bucket{le="+Inf"} 0`) || !strings.Contains(out, "ode_empty_count 0") {
		t.Fatalf("empty histogram exposition wrong:\n%s", out)
	}
}

func TestWriteVecFamilies(t *testing.T) {
	var b strings.Builder
	err := WriteFamily(&b, "ode_shard_commits_total", "Commits per shard.", "shard",
		[]Sample{{Label: "0", V: uint64(3)}, {Label: "1", V: uint64(5)}})
	if err != nil {
		t.Fatal(err)
	}
	err = WriteFamily(&b, "ode_shard_wal_bytes", "WAL bytes per shard.", "shard",
		[]Sample{{Label: "0", V: int64(4096)}})
	if err != nil {
		t.Fatal(err)
	}
	var h Histogram
	h.Observe(0)
	h.Observe(6)
	var empty Histogram
	err = WriteFamily(&b, "ode_shard_commit_ns", "Commit latency per shard.", "shard",
		[]Sample{{Label: "0", V: h.Snapshot()}, {Label: "1", V: empty.Snapshot()}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ode_shard_commits_total counter",
		`ode_shard_commits_total{shard="0"} 3`,
		`ode_shard_commits_total{shard="1"} 5`,
		"# TYPE ode_shard_wal_bytes gauge",
		`ode_shard_wal_bytes{shard="0"} 4096`,
		"# TYPE ode_shard_commit_ns histogram",
		`ode_shard_commit_ns_bucket{shard="0",le="0"} 1`,
		`ode_shard_commit_ns_bucket{shard="0",le="7"} 2`,
		`ode_shard_commit_ns_bucket{shard="0",le="+Inf"} 2`,
		`ode_shard_commit_ns_sum{shard="0"} 6`,
		`ode_shard_commit_ns_count{shard="0"} 2`,
		// An empty series still closes with its +Inf bucket.
		`ode_shard_commit_ns_bucket{shard="1",le="+Inf"} 0`,
		`ode_shard_commit_ns_count{shard="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The cumulative ladder elides empty tails per series too.
	if strings.Contains(out, `{shard="0",le="15"}`) || strings.Contains(out, `{shard="1",le="0"}`) {
		t.Fatalf("empty buckets not elided:\n%s", out)
	}
}
