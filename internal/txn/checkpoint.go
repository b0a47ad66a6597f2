// Checkpoints: making the page file current so that a log segment can
// be emptied (DESIGN.md §10.2, §10.4). Every checkpoint — the
// checkpointer's and a writer's past the slack (checkpointIfDue), an
// explicit one (Checkpoint, a coordinator's, Backup's) and Close's — is
// the one routine, checkpoint, begun under the quiesced writer mutex
// (lockWriterQuiesced). An automatic one lets the mutex go once it has
// captured the dirty pages and switched the log to its other file, and
// writes the pages back while commits go on in the new segment; the
// others keep it and empty the current segment in place.
package txn

import (
	"fmt"
	"time"

	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/wal"
)

// segmentFile names the second file of the log whose first file is
// named wal: a shard's log moves from one to the other at each automatic
// checkpoint (Manager.switchLog). Only a shard whose log has moved
// has one.
func segmentFile(wal string) string { return wal + ".1" }

// DefaultCheckpointBytes triggers a checkpoint when the WAL exceeds this
// size at a commit boundary. It is one of two triggers: a checkpoint is
// also due when dirty pages reach their share of the buffer pool
// (storage.Pool.DirtyDue), whichever comes first.
const DefaultCheckpointBytes = 8 << 20

// ckptRun is an automatic checkpoint writing pages back off the writer
// mutex; done is closed when it has finished, successfully or not.
type ckptRun struct{ done chan struct{} }

// walBytes is the log's size: its current segment, plus the records of
// the old one while a checkpoint has yet to retire it. Any goroutine may
// ask.
func (m *Manager) walBytes() int64 {
	n := m.log.Size()
	if old := m.old.Load(); old != nil {
		n += old.Size() - wal.HeaderSize
	}
	return n
}

// checkpointDue reports whether an automatic checkpoint is due at a
// commit boundary, and which of the two triggers says so: the log (both
// its segments, walBytes) has reached CheckpointBytes, or (byDirty) dirty
// pages have reached their share of the pool, which the log's size does
// not bound (a page delta costs it a few bytes). A negative
// CheckpointBytes disables both.
func (m *Manager) checkpointDue(walSize int64) (due, byDirty bool) {
	limit := m.opts.checkpointBytes()
	switch {
	case limit < 0:
		return false, false
	case walSize >= limit:
		return true, false
	}
	return m.st.Pool().DirtyDue(), true
}

// Checkpoint forces the page file current and empties the log, and
// counts and traces the checkpoint on the shard — before it lets the
// writer mutex go, so a writer that gets it next sees the count. It first
// quiesces the shard (lockWriterQuiesced): the page flush must only ever
// persist effects of durable transactions (flushing a prepared-but-
// unfsynced transaction and then emptying the log could make a commit
// durable that its writer was told failed). Unlike an automatic
// checkpoint it holds the writer mutex throughout: it returns with every
// page clean and the log at its header.
func (m *Manager) Checkpoint() error {
	m.lockWriterQuiesced()
	defer m.unlockWriter()
	if m.isClosed() {
		return ErrClosed
	}
	start := time.Now()
	if err := m.checkpoint(false); err != nil {
		return err
	}
	observeCheckpoint(m.m, m.sink, start)
	return nil
}

// checkpointIfDue is the only code that decides whether an automatic
// checkpoint runs (callers: checkpointer, lockWriter), and counts each
// one it runs under the trigger that made it due, whether it then
// succeeds or fails. It quiesces the shard first, waiting out the
// checkpoint already running, if any; then a closed, read-only, poisoned
// or no longer due shard does nothing.
func (m *Manager) checkpointIfDue() {
	m.lockWriterQuiesced()
	if m.isClosed() || m.opts.Storage.ReadOnly || m.ioErr.Load() != nil {
		m.unlockWriter()
		return
	}
	due, byDirty := m.checkpointDue(m.walBytes())
	if !due {
		m.unlockWriter()
		return
	}
	if byDirty {
		m.m.CheckpointsByDirtyPages.Inc()
	} else {
		m.m.CheckpointsByWALBytes.Inc()
	}
	m.checkpoint(true) // a failure poisons the shard: its next write reports it
}

// checkpoint is the one routine that writes a shard's pages back and
// empties a log segment. Its caller holds the writer mutex quiesced
// (lockWriterQuiesced); a read-only or poisoned shard refuses, the mutex
// still held (checkpointIfDue, which detaches, runs none on such a
// shard). It captures the dirty page objects, which no writer changes
// again (the next to touch one copies it first). What it does with the
// mutex is the caller's one choice:
//
//   - detach (an automatic checkpoint): switch the log to its other
//     segment and let the mutex go. Commits go on in the new segment, the
//     first to touch a captured page logging its whole image (stage),
//     while the old one is written back as run. It counts itself on the
//     shard when it succeeds, before run ends.
//   - otherwise (Checkpoint, a coordinator's, Close): keep the mutex and
//     empty the current segment in place, returning with every page clean
//     and the log at its header; the caller counts it, if anyone does.
//
// It returns once the write-back has ended; a failure poisons the shard.
func (m *Manager) checkpoint(detach bool) error {
	if m.opts.Storage.ReadOnly {
		return ErrReadOnly
	}
	if err := m.poisoned(); err != nil {
		return err
	}
	start := time.Now()
	pages := m.st.Pool().DirtyPages()
	seg := m.log
	if detach {
		old, err := m.switchLog()
		if err != nil {
			m.unlockWriter()
			err = fmt.Errorf("txn: checkpoint: %w", err)
			m.poison(err)
			return err
		}
		seg = old
		r := &ckptRun{done: make(chan struct{})}
		m.run.Store(r)
		m.unlockWriter()
		defer func() {
			m.run.Store(nil)
			close(r.done)
		}()
	} else {
		// The current segment is the log writers append to under logMu.
		m.logMu.Lock()
		defer m.logMu.Unlock()
	}
	if err := m.writeBack(seg, pages); err != nil {
		m.poison(err)
		return err
	}
	if detach {
		observeCheckpoint(m.m, m.sink, start)
	}
	return nil
}

// switchLog ends the log's current segment and goes on in the spare the
// last checkpoint renewed — or, at a Manager's first switch, in the log's
// other file, opened and renewed here — and returns the segment it ended,
// which stays in old until the checkpoint retires it. Caller holds the
// quiesced writer mutex.
func (m *Manager) switchLog() (*wal.Log, error) {
	if m.spare == nil {
		next, err := wal.OpenFS(m.opts.fsys(), segmentFile(m.walPath))
		if err != nil {
			return nil, err
		}
		next.SetMetrics(m.m)
		if err := next.Renew(m.log.Gen() + 1); err != nil {
			next.Close()
			return nil, err
		}
		m.spare = next
	}
	m.logMu.Lock()
	old, err := m.log.Switch(m.spare)
	m.logMu.Unlock()
	if err != nil {
		return nil, err
	}
	m.spare = nil
	m.old.Store(old)
	m.seg++
	return old, nil
}

// writeBack makes the page file current with seg, the segment that
// logged pages, then empties seg, in the one order every checkpoint
// keeps — WAL before data, also under NoSync, where commits sit in the
// log's write buffer until someone flushes it: sync seg (free unless
// NoSync: the drained pipeline synced what it appended), write pages,
// sync the data file, then empty seg — retire it (renewed as the segment
// after the current one, synced, kept as the spare) if the log switched
// away from it, reset it in place if it is the current one — and mark
// clean the pages still live. A failure leaves seg for recovery, and the
// caller poisons the shard: after a failed flush the pool's clean/dirty
// bookkeeping no longer proves what is on disk (a kernel that reported a
// failed fsync may have dropped the writes), so only a reopen may empty
// the log again.
func (m *Manager) writeBack(seg *wal.Log, pages []*storage.Page) error {
	pool := m.st.Pool()
	err := seg.Sync()
	if err == nil {
		_, err = pool.WritePages(pages)
	}
	if err == nil {
		err = m.st.Sync()
	}
	if err != nil {
		return fmt.Errorf("txn: checkpoint flush: %w", err)
	}
	retire := seg != m.log
	if !retire {
		err = seg.Reset()
	} else if err = seg.Renew(seg.Gen() + 2); err == nil {
		err = seg.Sync()
	}
	if err != nil {
		return fmt.Errorf("txn: checkpoint: empty log segment: %w", err)
	}
	if retire {
		m.old.Store(nil)
		m.spare = seg
	}
	pool.MarkWritten(pages)
	return nil
}

// observeCheckpoint records a successful checkpoint's duration and span
// in reg and sink: a shard's, or the coordinator's for its checkpoint.
func observeCheckpoint(reg *obs.Metrics, sink *obs.Sink, start time.Time) {
	d := time.Since(start)
	reg.CheckpointDuration.ObserveDuration(d)
	sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
}

// awaitCheckpoint returns once no automatic checkpoint is writing pages
// back. It needs no lock: a running one takes none of the locks its
// waiters may hold.
func (m *Manager) awaitCheckpoint() {
	if r := m.run.Load(); r != nil {
		<-r.done
	}
}

// maybeKickCheckpoint nudges the background checkpointer when a
// checkpoint is due (checkpointDue). The kick is a send on a one-slot
// channel that never blocks: a kick already queued covers this one, and
// a kick taken by a checkpoint that has since reset the log finds it no
// longer due (checkpointIfDue, which counts the checkpoints that run).
func (m *Manager) maybeKickCheckpoint() {
	if due, _ := m.checkpointDue(m.walBytes()); !due {
		return
	}
	select {
	case m.ckptKick <- struct{}{}:
	default:
	}
}

// checkpointer is the background goroutine that runs checkpoints off
// the commit path, one checkpointIfDue per kick.
func (m *Manager) checkpointer() {
	defer m.ckptWG.Done()
	for {
		select {
		case <-m.ckptStop:
			return
		case <-m.ckptKick:
			m.checkpointIfDue()
		}
	}
}
