package ode

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/wal"
)

// parkDataSync is a filesystem whose first Sync of a data file, once
// armed, reports the file's name and waits for release: a checkpoint
// stuck in its data-file fsync.
type parkDataSync struct {
	faultfs.FS
	armed   atomic.Bool
	parked  chan string
	release chan struct{}
}

func (f *parkDataSync) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	h, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "data.") {
		return h, err
	}
	return &parkDataSyncFile{File: h, fs: f, name: filepath.Base(path)}, nil
}

type parkDataSyncFile struct {
	faultfs.File
	fs   *parkDataSync
	name string
}

func (h *parkDataSyncFile) Sync() error {
	if h.fs.armed.CompareAndSwap(true, false) {
		h.fs.parked <- h.name
		<-h.fs.release
	}
	return h.File.Sync()
}

// TestCheckpointDoesNotBlockWriters parks an automatic checkpoint in its
// data-file fsync and commits an Update on the same shard meanwhile: the
// checkpoint holds the shard's writer mutex only to capture its pages and
// switch the log, so the Update must not wait for the fsync. An explicit
// Checkpoint called meanwhile must wait: it returns only once the fsync
// is let go and the automatic checkpoint has completed, with every
// shard's log at its header. The Update survives a reopen.
func TestCheckpointDoesNotBlockWriters(t *testing.T) {
	const limit = 512 << 10
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fsys := &parkDataSync{FS: faultfs.NewMem(), parked: make(chan string, 1), release: make(chan struct{})}
			opts := &Options{Shards: shards, CheckpointBytes: limit, FS: fsys}
			db, err := Open("/db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(fsys.release) }) }
			defer release() // before Close, which waits for the checkpoint
			parts, err := Register[Part](db, "Part")
			if err != nil {
				t.Fatal(err)
			}
			var p Ptr[Part]
			if err := db.Update(func(tx *Tx) error {
				p, err = parts.Create(tx, &Part{Name: "hot"})
				return err
			}); err != nil {
				t.Fatal(err)
			}
			update := func(rev int) error {
				return db.Update(func(tx *Tx) error {
					v, err := p.NewVersion(tx)
					if err != nil {
						return err
					}
					return v.Set(tx, &Part{Name: "hot", Rev: rev, Data: bytes.Repeat([]byte{byte(rev)}, 2048)})
				})
			}
			shard := db.coord.Map().ShardOf(uint64(p.OID()))
			sm := db.coord.Shards()[shard]
			wantFile := fmt.Sprintf("data.%03d", shard)

			// Grow the object's shard log to the limit: the commit that
			// reaches it kicks the checkpointer, which parks in the fsync.
			fsys.armed.Store(true)
			for rev := 1; sm.Stats().WALBytes < limit; rev++ {
				if rev > 2000 {
					t.Fatalf("2000 Updates and the shard log is at %d bytes", sm.Stats().WALBytes)
				}
				if err := update(rev); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case name := <-fsys.parked:
				if name != wantFile {
					t.Fatalf("a checkpoint parked syncing %s, want %s", name, wantFile)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no checkpoint reached its data-file fsync")
			}

			const last = 1 << 20
			done := make(chan error, 1)
			go func() { done <- update(last) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Update beside the parked checkpoint: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("an Update on the checkpointing shard waited for the checkpoint's data-file fsync")
			}
			if n := sm.Stats().Checkpoints; n != 0 {
				t.Fatalf("%d checkpoints done while the first is parked", n)
			}
			readRev := func(db *DB) int {
				t.Helper()
				var rev int
				if err := db.View(func(tx *Tx) error {
					part, err := p.Deref(tx)
					rev = part.Rev
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return rev
			}
			if rev := readRev(db); rev != last {
				t.Fatalf("read rev %d after the Update, want %d", rev, last)
			}

			// An explicit checkpoint waits out the parked write-back, then
			// empties every shard's log.
			explicit := make(chan error, 1)
			go func() { explicit <- db.Checkpoint() }()
			select {
			case err := <-explicit:
				t.Fatalf("Checkpoint returned (%v) while an automatic one was writing back", err)
			case <-time.After(100 * time.Millisecond):
			}

			release()
			select {
			case err := <-explicit:
				if err != nil {
					t.Fatalf("Checkpoint after the write-back: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Checkpoint never returned after the write-back was released")
			}
			for i, s := range db.coord.Shards() {
				if n := s.Stats().WALBytes; n != wal.HeaderSize {
					t.Fatalf("shard %d log holds %d bytes after Checkpoint, want its %d-byte header", i, n, wal.HeaderSize)
				}
			}
			for deadline := time.Now().Add(10 * time.Second); sm.Stats().Checkpoints == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the released checkpoint never completed")
				}
				time.Sleep(time.Millisecond)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open("/db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if rev := readRev(db); rev != last {
				t.Fatalf("read rev %d after reopening, want %d", rev, last)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
