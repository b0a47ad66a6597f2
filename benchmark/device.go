package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ode/internal/faultfs"
)

// deviceFS is the benchmark's seam below the engine: it optionally
// replaces each flush by a fixed cost (the modeled device of
// durable-commit; the sandbox's real fsync swings too much to compare
// runs) and optionally counts calls and bytes (the traced run). Both are off
// for the untraced run of a NoSync workload, which uses the OS
// filesystem directly.
type deviceFS struct {
	inner     faultfs.FS
	syncDelay time.Duration
	count     *deviceCounts // nil: do not count
}

// deviceCounts splits writes by file role: the per-shard WALs and the
// coordinator's decision log against the page files.
type deviceCounts struct {
	reads, readBytes      atomic.Int64
	walWrites, walBytes   atomic.Int64
	dataWrites, dataBytes atomic.Int64
	syncs                 atomic.Int64
}

func isLog(path string) bool {
	base := filepath.Base(path)
	return strings.HasPrefix(base, "wal") || strings.HasPrefix(base, "coord")
}

func (d *deviceFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := d.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &deviceFile{File: f, fs: d, log: isLog(path)}, nil
}

func (d *deviceFS) Stat(path string) (int64, error)              { return d.inner.Stat(path) }
func (d *deviceFS) MkdirAll(path string, perm os.FileMode) error { return d.inner.MkdirAll(path, perm) }
func (d *deviceFS) ReadDir(dir string) ([]string, error)         { return d.inner.ReadDir(dir) }

func (d *deviceFS) SyncDir(dir string) error {
	if d.modeledFlush() {
		return nil
	}
	return d.inner.SyncDir(dir)
}

// modeledFlush counts a flush and, on a modeled device, charges its
// fixed cost in place of the real one and reports true.
func (d *deviceFS) modeledFlush() bool {
	if d.count != nil {
		d.count.syncs.Add(1)
	}
	if d.syncDelay > 0 {
		time.Sleep(d.syncDelay)
		return true
	}
	return false
}

type deviceFile struct {
	faultfs.File
	fs  *deviceFS
	log bool
}

func (f *deviceFile) ReadAt(p []byte, off int64) (int, error) {
	if c := f.fs.count; c != nil {
		c.reads.Add(1)
		c.readBytes.Add(int64(len(p)))
	}
	return f.File.ReadAt(p, off)
}

func (f *deviceFile) WriteAt(p []byte, off int64) (int, error) {
	if c := f.fs.count; c != nil {
		if f.log {
			c.walWrites.Add(1)
			c.walBytes.Add(int64(len(p)))
		} else {
			c.dataWrites.Add(1)
			c.dataBytes.Add(int64(len(p)))
		}
	}
	return f.File.WriteAt(p, off)
}

func (f *deviceFile) Sync() error {
	if f.fs.modeledFlush() {
		return nil
	}
	return f.File.Sync()
}
