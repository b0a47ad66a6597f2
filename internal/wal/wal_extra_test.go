package wal

import (
	"bytes"
	"encoding/binary"
	"ode/internal/faultfs"
	"ode/internal/obs"
	"os"
	"path/filepath"
	"testing"
)

func TestAbortRecordRoundtrip(t *testing.T) {
	l, _ := tempLog(t)
	// No code writes abort or checkpoint records any more, but the
	// format defines them and recovery honours them, so stage them by
	// hand.
	stage(t, l, func(fr *Frames) { fr.Begin(5); fr.record(RecAbort, 5, nil) })
	if _, err := l.appendOne(RecCheckpoint, 0, nil); err != nil {
		t.Fatal(err)
	}
	var kinds []uint8
	if err := l.Scan(func(r Record) error {
		kinds = append(kinds, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint8{RecBegin, RecAbort, RecCheckpoint}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v want %v", kinds, want)
		}
	}
}

func TestOversizedLengthWordTreatedAsTorn(t *testing.T) {
	l, path := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(1) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	goodEnd := l.End()
	l.Close()
	// Append a frame claiming an absurd payload length.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[0:4], MaxRecord+1)
	if _, err := f.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != goodEnd {
		t.Fatalf("oversized frame not trimmed: %v want %v", l2.End(), goodEnd)
	}
}

func TestUnknownRecordTypeRejectedByScan(t *testing.T) {
	l, _ := tempLog(t)
	// Craft a structurally valid (CRC-correct) record with a bogus type.
	stage(t, l, func(fr *Frames) { fr.record(0x7E, 1, nil) })
	err := l.Scan(func(Record) error { return nil })
	if err == nil {
		t.Fatal("unknown record type accepted by scan")
	}
}

func TestScanCallbackErrorPropagates(t *testing.T) {
	l, _ := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(1) })
	sentinel := bytes.ErrTooLarge
	if err := l.Scan(func(Record) error { return sentinel }); err != sentinel {
		t.Fatalf("callback error lost: %v", err)
	}
}

// TestLogCountsInItsOwnRegistry: a log nobody handed a registry (the
// benchmark's probes open one with Open) has one, and records and syncs
// are counted there — then in whichever registry its owner moves it to.
func TestLogCountsInItsOwnRegistry(t *testing.T) {
	l, _ := tempLog(t)
	stage(t, l, func(fr *Frames) { fr.Begin(1); fr.Commit(1) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	own := l.Metrics()
	if appends, syncs := own.WALAppends.Load(), own.WALFsyncLatency.Snapshot().Count; appends != 2 || syncs != 1 {
		t.Fatalf("own registry: %d appends, %d syncs, want 2 and 1", appends, syncs)
	}
	shard := obs.New()
	l.SetMetrics(shard)
	stage(t, l, func(fr *Frames) { fr.Begin(2) })
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if appends, syncs := shard.WALAppends.Load(), shard.WALFsyncLatency.Snapshot().Count; appends != 1 || syncs != 1 {
		t.Fatalf("shard registry: %d appends, %d syncs, want 1 and 1", appends, syncs)
	}
	if appends := own.WALAppends.Load(); appends != 2 {
		t.Fatalf("the registry the log left counted on: %d appends", appends)
	}
}

// TestSyncWithNothingAppendedIsFree: a caller that needs the log on
// stable storage (a checkpoint, before its first page write) may ask
// without knowing who synced last. Only an append makes Sync touch the
// device again; Reset and TruncateTo leave the log synced.
func TestSyncWithNothingAppendedIsFree(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.NewMem(), faultfs.Plan{})
	l, err := OpenFS(inj, "/sync.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	syncs := func() uint64 { return inj.Counts().Syncs }
	base := syncs()
	if err := l.Sync(); err != nil || syncs() != base {
		t.Fatalf("Sync of a fresh log: %v, %d device syncs", err, syncs()-base)
	}
	stage(t, l, func(fr *Frames) { fr.Begin(1); fr.Commit(1) })
	for i := 0; i < 3; i++ {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncs() - base; got != 1 {
		t.Fatalf("one append, three Syncs: %d device syncs, want 1", got)
	}
	mid := l.End()
	stage(t, l, func(fr *Frames) { fr.Begin(2) })
	if err := l.TruncateTo(mid); err != nil {
		t.Fatal(err)
	}
	stage(t, l, func(fr *Frames) { fr.Begin(3) })
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	after := syncs()
	if err := l.Sync(); err != nil || syncs() != after {
		t.Fatalf("Sync after TruncateTo and Reset: %v, %d device syncs", err, syncs()-after)
	}
	if n := l.Metrics().WALFsyncLatency.Snapshot().Count; n != 1 {
		t.Fatalf("the registry counts %d syncs, want the 1 that reached the device", n)
	}
	// A sync issued apart from Sync — Flush, SyncFile, then MarkDurable
	// once the caller knows what it covered — counts too.
	stage(t, l, func(fr *Frames) { fr.Begin(4); fr.Commit(4) })
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncFile(); err != nil {
		t.Fatal(err)
	}
	l.MarkDurable(l.End())
	pipelined := syncs()
	if err := l.Sync(); err != nil || syncs() != pipelined {
		t.Fatalf("Sync after SyncFile and MarkDurable: %v, %d device syncs", err, syncs()-pipelined)
	}
	if pipelined != after+1 {
		t.Fatalf("Flush and SyncFile: %d device syncs, want 1", pipelined-after)
	}
}

func TestOpenDirectoryFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir)); err == nil {
		t.Fatal("opening a directory as a WAL succeeded")
	}
}
