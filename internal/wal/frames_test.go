package wal

// Frames is the only record encoder, and its output is spliced straight
// into the log, so any change to what it emits is an on-disk format
// change. The golden bytes below were written by the last commit that
// still had a second, record-at-a-time encoder (Log.AppendBegin and
// friends, byte-identical to Frames by test); they pin the format now
// that nothing else does.

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"

	"ode/internal/oid"
)

const (
	goldenTx   = oid.TxID(123456789)
	goldenPage = oid.PageID(0xDEADBE)
	goldenGTID = uint64(1) << 60
)

var goldenImage = []byte{0x5a, 0x00, 0xff, 0x10, 0x7f}

// goldenRun is Begin, PageImage, Commit, Prepare for the constants
// above; goldenSingles is an abort record, a shard-map record carrying
// {1,2,3} and a checkpoint marker.
const (
	goldenRun = "000000052b5c285a01959aef3a" +
		"0000000ee9b3b6fa02959aef3a00deadbe5a00ff107f" +
		"000000055b7ef70203959aef3a" +
		"0000000e57d52b6a06959aef3a808080808080808010"
	goldenSingles = "00000005f308f94604959aef3a" +
		"000000087c552e3407959aef3a010203" +
		"00000002ac498e790500"
	goldenHeader = "4f44454c00000001"
)

func TestFramesGoldenBytes(t *testing.T) {
	var fr Frames
	fr.Begin(goldenTx)
	fr.PageImage(goldenTx, goldenPage, goldenImage)
	fr.Commit(goldenTx)
	fr.Prepare(goldenTx, goldenGTID)
	if got := hex.EncodeToString(fr.buf); got != goldenRun {
		t.Fatalf("staged run changed on-disk format:\n  got  %s\n  want %s", got, goldenRun)
	}
	if fr.Records() != 4 {
		t.Fatalf("Records() = %d, want 4", fr.Records())
	}
	if fr.Len() != len(goldenRun)/2 {
		t.Fatalf("Len() = %d, want %d", fr.Len(), len(goldenRun)/2)
	}
}

// TestLogGoldenBytes pins the whole file image — header, a staged run,
// and the single records the direct appenders log — and checks that the
// golden bytes decode back to the records they were written from.
func TestLogGoldenBytes(t *testing.T) {
	l, path := tempLog(t)
	stage(t, l, func(fr *Frames) {
		fr.Begin(goldenTx)
		fr.PageImage(goldenTx, goldenPage, goldenImage)
		fr.Commit(goldenTx)
		fr.Prepare(goldenTx, goldenGTID)
		fr.record(RecAbort, goldenTx, nil)
	})
	if _, err := l.AppendShardMap(goldenTx, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.appendOne(RecCheckpoint, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenHeader + goldenRun + goldenSingles
	if got := hex.EncodeToString(file); got != want {
		t.Fatalf("log file changed on-disk format:\n  got  %s\n  want %s", got, want)
	}
	wantRecs := []Record{
		{Type: RecBegin, Tx: goldenTx},
		{Type: RecPageImage, Tx: goldenTx, Page: goldenPage, Data: goldenImage},
		{Type: RecCommit, Tx: goldenTx},
		{Type: RecPrepare, Tx: goldenTx, GTID: goldenGTID},
		{Type: RecAbort, Tx: goldenTx},
		{Type: RecShardMap, Tx: goldenTx, Data: []byte{1, 2, 3}},
		{Type: RecCheckpoint},
	}
	i := 0
	if err := l.Scan(func(r Record) error {
		if i >= len(wantRecs) {
			t.Fatalf("extra record %+v", r)
		}
		w := wantRecs[i]
		if r.Type != w.Type || r.Tx != w.Tx || r.Page != w.Page || r.GTID != w.GTID || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(wantRecs) {
		t.Fatalf("scanned %d records, want %d", i, len(wantRecs))
	}
}
