package main

import (
	"strings"
	"testing"

	"ode"
)

// TestShellPayloadsAndCompact drives the delta-tier surfaces: a chain of
// small edits, the payloads report before and after an explicit compact
// sweep, and the contents still reading back exactly afterwards.
func TestShellPayloadsAndCompact(t *testing.T) {
	db, err := ode.Open(t.TempDir(), &ode.Options{
		Shards: 1, DeltaTier: true, AnchorInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var sb strings.Builder
	sh := &shell{db: db, out: &sb}

	mustExec(t, sh, "new doc the quick brown fox jumps over the lazy dog")
	for i := 0; i < 9; i++ {
		mustExec(t, sh, "nv o1")
	}
	mustExec(t, sh, "set o1 v10 the quick brown cat jumps over the lazy dog")
	mustExec(t, sh, "payloads")
	mustExec(t, sh, "compact")
	mustExec(t, sh, "payloads")
	mustExec(t, sh, "read o1 v5")
	mustExec(t, sh, "check")

	got := sb.String()
	for _, want := range []string{
		"compacted:",
		"delta", // payloads report mentions the representation
		"v5 = \"the quick brown fox jumps over the lazy dog\"",
		"ok",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// After the sweep the store must actually hold deltas and respect
	// the anchor-interval depth bound.
	ps, err := db.Engine().PayloadStats()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Delta == 0 && ps.Same == 0 {
		t.Fatalf("no dependent payloads after compact: %+v", ps)
	}
	if ps.MaxDepth > 4 {
		t.Fatalf("chain depth %d exceeds anchor interval 4", ps.MaxDepth)
	}
}
