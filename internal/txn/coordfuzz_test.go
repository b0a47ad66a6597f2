package txn

// Native fuzz target for the coordinator decision-record scanner,
// mirroring the WAL scanner fuzzers (internal/wal/fuzz_test.go). The
// contract under attack: whatever a crash leaves at the tail of
// coord.ode, scanDecisions must never panic, must keep every decision
// durably appended before the torn tail (losing one would presume a
// committed transaction aborted and roll back prepared shards), and
// must be idempotent across reopen.

import (
	"os"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/wal"
)

const fuzzCoordPath = "/coord.ode"

// buildCoordLog appends one commit decision per seed byte (gtid =
// byte value + 1, so a zero byte still names a transaction) and, for
// every third byte, an interleaved non-decision record the scanner
// must ignore. Returns the set of decided gtids and the log's end.
func buildCoordLog(t testing.TB, fsys faultfs.FS, seed []byte) (map[uint64]bool, oid.LSN) {
	t.Helper()
	l, err := wal.OpenFS(fsys, fuzzCoordPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := map[uint64]bool{}
	for i, b := range seed {
		gtid := uint64(b) + 1
		if i%3 == 2 {
			// Not a decision: scanDecisions must skip it.
			logRun(t, l, func(fr *wal.Frames) { fr.Begin(oid.TxID(gtid)) })
			continue
		}
		if _, err := l.AppendCommit(oid.TxID(gtid)); err != nil {
			t.Fatal(err)
		}
		want[gtid] = true
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return want, l.End()
}

func spliceTail(t testing.TB, fsys faultfs.FS, at oid.LSN, tail []byte) {
	t.Helper()
	f, err := fsys.OpenFile(fuzzCoordPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(tail, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanCoord(t testing.TB, fsys faultfs.FS) (map[uint64]bool, error) {
	t.Helper()
	l, err := wal.OpenFS(fsys, fuzzCoordPath)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	decided, _, err := scanDecisions(l)
	return decided, err
}

// FuzzCoordDecisionScan builds a valid decision log from the seed,
// splices an arbitrary tail where a crash would leave one, and
// re-scans. Every decision before the tail must survive, and a second
// scan (after the first open truncated the garbage) must agree.
func FuzzCoordDecisionScan(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte("torn-decision-record"))
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 7, 7, 9}, []byte{})
	f.Add([]byte{0xff, 0x00, 0x42}, []byte{0xff, 0x00, 0x13, 0x37})

	f.Fuzz(func(t *testing.T, seed, tail []byte) {
		if len(seed) > 256 {
			seed = seed[:256]
		}
		mem := faultfs.NewMem()
		want, validEnd := buildCoordLog(t, mem, seed)
		spliceTail(t, mem, validEnd, tail)

		decided, err := scanCoord(t, mem)
		if err != nil {
			// A rejected log is acceptable (open fails loudly and no
			// recovery proceeds); silently losing decisions is not.
			return
		}
		for gtid := range want {
			if !decided[gtid] {
				t.Fatalf("decision for gtid %d lost to a torn tail", gtid)
			}
		}
		// Idempotence: the first open truncated the tail, so a re-scan
		// must produce the identical decision set.
		again, err := scanCoord(t, mem)
		if err != nil {
			t.Fatalf("re-scan after truncation failed: %v", err)
		}
		if len(again) != len(decided) {
			t.Fatalf("re-scan changed decision count: %d -> %d", len(decided), len(again))
		}
		for gtid := range decided {
			if !again[gtid] {
				t.Fatalf("re-scan lost gtid %d", gtid)
			}
		}
	})
}

// TestCoordLogGarbageTailRecovery is the deterministic regression
// companion: a healthy decision log with a garbage tail must recover
// exactly its decisions.
func TestCoordLogGarbageTailRecovery(t *testing.T) {
	mem := faultfs.NewMem()
	want, validEnd := buildCoordLog(t, mem, []byte{2, 4, 2, 6}) // gtids 3,5,7 decided; index 2 becomes a non-decision record
	spliceTail(t, mem, validEnd, []byte("\xde\xad\xbe\xef not a record"))
	decided, err := scanCoord(t, mem)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(decided) != len(want) {
		t.Fatalf("decided %v, want %v", decided, want)
	}
	for gtid := range want {
		if !decided[gtid] {
			t.Fatalf("missing decision for gtid %d (decided %v)", gtid, decided)
		}
	}
}
