package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ode"
)

type widget struct {
	Name string
}

func buildTestDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{DeltaTier: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	widgets, err := ode.Register[widget](db, "widget")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *ode.Tx) error {
		p, err := widgets.Create(tx, &widget{Name: "w1"})
		if err != nil {
			return err
		}
		if _, err := p.NewVersion(tx); err != nil {
			return err
		}
		pin, err := p.Pin(tx)
		if err != nil {
			return err
		}
		if err := tx.SaveConfig("demo", []ode.Binding{
			{Slot: "main", Obj: p.OID(), VID: pin.VID()},
			{Slot: "tip", Obj: p.OID()},
		}); err != nil {
			return err
		}
		return tx.SetContext("rel", map[ode.OID]ode.VID{p.OID(): pin.VID()})
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDumpOutput(t *testing.T) {
	dir := buildTestDB(t)
	var sb strings.Builder
	if err := run([]string{"-check", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"objects:      1",
		"versions:     2",
		"widget",
		"configurations:",
		"demo:",
		"static v",
		"dynamic (latest)",
		"contexts:",
		"rel: 1 pinned",
		"version graphs:",
		"derived-from:",
		"*latest",
		"integrity check... ok",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpNoGraphs(t *testing.T) {
	dir := buildTestDB(t)
	var sb strings.Builder
	if err := run([]string{"-graphs=false", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "version graphs:") {
		t.Fatal("graphs rendered despite -graphs=false")
	}
}

func TestDumpUsageError(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Fatal("missing dbdir accepted")
	}
}

func TestDumpMissingDB(t *testing.T) {
	// Opening a fresh temp dir creates an empty database; dumping it
	// must succeed with zero objects.
	var sb strings.Builder
	if err := run([]string{t.TempDir()}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "objects:      0") {
		t.Fatalf("empty dump wrong:\n%s", sb.String())
	}
}

func TestDumpShardedLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	widgets, err := ode.Register[widget](db, "widget")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := db.Update(func(tx *ode.Tx) error {
			_, err := widgets.Create(tx, &widget{Name: "s"})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-check", dir}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"layout:       sharded (3)",
		"data.000", "wal.002", "coord.ode",
		"shard 000:", "shard 002:",
		"objects:      6",
		"integrity check... ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpMixedLayoutFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a legacy data file next to the sharded layout.
	if err := os.WriteFile(filepath.Join(dir, "data.ode"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{dir}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "both legacy") {
		t.Fatalf("mixed layout not refused: %v", err)
	}
}

// TestDumpMixedLayoutErrorsIs pins the refusal's error identity: a
// caller (or script) must be able to errors.Is the failure, not match
// message text.
func TestDumpMixedLayoutErrorsIs(t *testing.T) {
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "data.ode"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{dir}, &strings.Builder{})
	if !errors.Is(err, ode.ErrMixedLayout) {
		t.Fatalf("want ErrMixedLayout, got %v", err)
	}
}

// TestDumpPartialLayoutErrorsIs: shard files without shards.ode are a
// damaged directory; the dump must refuse (with the txn layer's error
// identity) rather than quietly create a fresh database next to the
// orphaned data.
func TestDumpPartialLayoutErrorsIs(t *testing.T) {
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "shards.ode")); err != nil {
		t.Fatal(err)
	}
	err = run([]string{dir}, &strings.Builder{})
	if !errors.Is(err, ode.ErrPartialLayout) {
		t.Fatalf("want ErrPartialLayout, got %v", err)
	}
	// The same directory with only the coordinator log left behind is
	// still partial.
	for _, name := range []string{"data.000", "data.001", "wal.000", "wal.001"} {
		os.Remove(filepath.Join(dir, name))
	}
	err = run([]string{dir}, &strings.Builder{})
	if !errors.Is(err, ode.ErrPartialLayout) {
		t.Fatalf("coord.ode-only dir: want ErrPartialLayout, got %v", err)
	}
}

// buildGoldenDB grows a fixed 4-shard database single-threaded, so
// every byte of the dump is reproducible.
func buildGoldenDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := ode.Open(dir, &ode.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	widgets, err := ode.Register[widget](db, "widget")
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]ode.Ptr[widget], 8)
	for i := range ptrs {
		i := i
		if err := db.Update(func(tx *ode.Tx) error {
			var err error
			ptrs[i], err = widgets.Create(tx, &widget{Name: "g" + string(rune('0'+i))})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(tx *ode.Tx) error {
		if _, err := ptrs[0].NewVersion(tx); err != nil {
			return err
		}
		pin, err := ptrs[1].Pin(tx)
		if err != nil {
			return err
		}
		if err := tx.SaveConfig("golden", []ode.Binding{
			{Slot: "head", Obj: ptrs[0].OID()},
			{Slot: "pinned", Obj: ptrs[1].OID(), VID: pin.VID()},
		}); err != nil {
			return err
		}
		return tx.SetContext("golden-ctx", map[ode.OID]ode.VID{ptrs[1].OID(): pin.VID()})
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDumpShardedGolden compares the complete dump of a fixed 4-shard
// database against testdata/sharded4.golden (regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/odedump).
func TestDumpShardedGolden(t *testing.T) {
	dir := buildGoldenDB(t)
	var sb strings.Builder
	if err := run([]string{"-check", dir}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	got := strings.ReplaceAll(sb.String(), dir, "<DIR>")
	golden := filepath.Join("testdata", "sharded4.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("dump diverges from %s (regenerate with UPDATE_GOLDEN=1 if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
