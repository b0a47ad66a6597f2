package txn

// submit has two ends — the group committer when commits fsync, an
// inline append under NoSync — fed by the one staging function. What
// makes "one staging function" observable is that the log cannot tell
// which end wrote it: the same scripted transactions must leave
// byte-identical WALs either way.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/storage"
)

// scriptedWALs runs a fixed mix — single-shard commits, cross-shard 2PC
// commits (given more than one shard), an empty commit, an abort — with
// checkpoints off, and returns every log file's bytes once flushed.
func scriptedWALs(t *testing.T, shards int, noSync bool) map[string][]byte {
	t.Helper()
	const dir = "/db"
	mem := faultfs.NewMem()
	c, err := OpenCoordinator(dir, Options{
		Shards:          shards,
		NoSync:          noSync,
		Storage:         storage.Options{PageSize: 512},
		CheckpointBytes: -1,
		FS:              mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		on := []int{i % shards}
		if i%3 == 2 && on[0] < shards-1 {
			on = append(on, on[0]+1)
		}
		if err := c.Write(insertOn(fmt.Sprintf("scripted-%02d-abcdefghijklmnopqrstuvwxyz", i), on...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Write(func(*WriteTx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	errAbort := errors.New("scripted abort")
	if err := c.Write(func(w *WriteTx) error {
		if err := insertOn("doomed", 0)(w); err != nil {
			return err
		}
		return errAbort
	}); !errors.Is(err, errAbort) {
		t.Fatalf("abort returned %v", err)
	}

	// Every Write has been acknowledged, so nothing else touches the
	// logs; flush what NoSync left in their write buffers.
	files := map[string][]byte{}
	read := func(name string) {
		b, err := mem.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	for _, m := range c.Shards() {
		if err := m.log.Sync(); err != nil {
			t.Fatal(err)
		}
		read(m.opts.walFileName())
	}
	if err := c.clog.Sync(); err != nil {
		t.Fatal(err)
	}
	read(CoordWALFileName)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return files
}

func TestWALBytesSameInlineAndCommitter(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			inline := scriptedWALs(t, shards, true)
			committer := scriptedWALs(t, shards, false)
			if len(inline) != len(committer) {
				t.Fatalf("log files differ: %d inline, %d committer", len(inline), len(committer))
			}
			for name, want := range committer {
				got := inline[name]
				// One shard has no cross-shard commit to decide: its
				// decision log is there and stays empty.
				if len(want) <= 8 && !(name == CoordWALFileName && shards == 1) {
					t.Errorf("%s: committer run logged nothing (%d bytes); the comparison is vacuous", name, len(want))
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: inline submit wrote %d bytes, committer submit %d, and they differ", name, len(got), len(want))
				}
			}
		})
	}
}
