package txn

import (
	"testing"

	"ode/internal/faultfs"
	"ode/internal/wal"
)

// TestCommittedInLogCountsDecidedPrepareOnce: replay counts a
// transaction whose shard log holds both a decided prepare and a local
// commit record (the normal 2PC fast path) once, not twice, and a
// decided prepare without its commit record once too.
func TestCommittedInLogCountsDecidedPrepareOnce(t *testing.T) {
	log, err := wal.OpenFS(faultfs.NewMem(), "wal.000")
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	page := []byte{0xab}
	logRun(t, log, func(fr *wal.Frames) {
		// tx1: plain local commit.
		fr.Begin(1)
		fr.PageImage(1, 1, page)
		fr.Commit(1)
		// tx2: decided prepare followed by the shard-local commit record —
		// must count once.
		fr.Begin(2)
		fr.PageImage(2, 1, page)
		fr.Prepare(2, 7)
		fr.Commit(2)
		// tx3: decided prepare with no local commit (crash before the
		// shard-local decide landed) — still counts.
		fr.Begin(3)
		fr.PageImage(3, 1, page)
		fr.Prepare(3, 8)
		// tx4: undecided prepare — does not count.
		fr.Begin(4)
		fr.PageImage(4, 1, page)
		fr.Prepare(4, 9)
	})
	_, n, err := replay(map[uint64]bool{7: true, 8: true}, log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replay counted %d committed, want 3", n)
	}
}
