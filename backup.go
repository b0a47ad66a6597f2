package ode

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Backup writes a consistent snapshot of the database into dstDir
// (which must not already contain a database). It checkpoints every
// shard and copies the data file(s) under ONE acquisition of every
// shard's writer mutex (txn.Coordinator.CheckpointExclusive): no commit
// — and in particular no cross-shard 2PC commit — can land between the
// per-shard flushes or between the flushes and the copy, so the backup
// is one atomic cut of the whole database with empty logs. Writers (and
// further checkpoints) are blocked for the duration; snapshot readers
// keep running, since they never touch the data files' mutable tails.
// The copy is the shard metadata file (creation header plus the
// current shard-map frame) and every PHYSICAL shard's data file — after
// a merge there are more files than logical shards; the WALs and the
// coordinator decision log are empty at the copy point and are
// recreated on open. The file set is enumerated inside the exclusive
// section, which also excludes reshards (CheckpointExclusive holds the
// reshard lock), so a concurrent split cannot add shard files between
// the enumeration and the copy.
func (db *DB) Backup(dstDir string) error {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("ode: backup mkdir: %w", err)
	}
	// Pre-checkpoint outside the exclusive section so the bulk of the
	// flushing happens without writers blocked; the exclusive checkpoint
	// below then only handles the delta committed since.
	if err := db.Checkpoint(); err != nil {
		return err
	}
	return db.coord.CheckpointExclusive(func() error {
		files := db.coord.DataFiles()
		for _, f := range files {
			if _, err := os.Stat(filepath.Join(dstDir, f)); err == nil {
				return fmt.Errorf("ode: backup target %s already exists", filepath.Join(dstDir, f))
			}
		}
		src := db.dir()
		for _, f := range files {
			if err := copyFileSync(filepath.Join(src, f), filepath.Join(dstDir, f)); err != nil {
				return err
			}
		}
		return nil
	})
}

// copyFileSync copies src to dst and fsyncs the result.
func copyFileSync(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("ode: backup open: %w", err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("ode: backup create: %w", err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("ode: backup copy: %w", err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
