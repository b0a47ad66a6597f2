// Checkpoints: making the page file current so that the log can be
// emptied (DESIGN.md §10.2, §10.4). An explicit Checkpoint, a
// coordinator's and Close run checkpointLocked wholly under the writer
// mutex. An automatic one — the checkpointer's, or a writer's past the
// slack, both through checkpointIfDue — holds the mutex only to capture
// the dirty pages and switch the log to its other file, and writes the
// pages back off it (checkpointAsync, writeBack), one at a time per
// shard, while commits go on in the new segment.
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
// checkpoint (Manager.checkpointAsync). Only a shard whose log has moved
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

// Checkpoint forces the page file current and truncates the WAL, and
// counts and traces the checkpoint on the shard — before it lets the
// writer mutex go, so a writer that gets it next sees the count. It
// first drains the commit pipeline (lockWriterDrained): the page flush
// must only ever persist effects of durable transactions (flushing a
// prepared-but-unfsynced transaction and then resetting the WAL could
// make a commit durable that its writer was told failed). Unlike an
// automatic checkpoint it holds the writer mutex throughout: it returns
// with every page clean and the log at its header.
func (m *Manager) Checkpoint() error {
	m.lockWriterDrained()
	defer m.unlockWriter()
	if m.isClosed() {
		return ErrClosed
	}
	return m.checkpointCounted()
}

// checkpointIfDue is the only code that decides whether an automatic
// checkpoint runs (callers: checkpointer, lockWriter), and counts each
// one it runs under the trigger that made it due, whether it then
// succeeds or fails. It first waits out the checkpoint already running,
// if any (lockWriterIdle); then, under the drained writer mutex, a
// closed, read-only, poisoned or no longer due shard does nothing.
func (m *Manager) checkpointIfDue() {
	m.lockWriterIdle()
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
	m.checkpointAsync() // a failure poisons the shard: its next write reports it
}

// checkpointAsync is an automatic checkpoint. Its caller holds the writer
// mutex with the pipeline drained and no checkpoint running; it does only
// in-memory work under it — captures the dirty page objects, which no
// writer will change again (the next to touch one copies it first), and
// switches the log to the segment prepared in its other file — and
// releases it. Commits go on in the new segment while writeBack, off the
// mutex, makes the old segment durable, writes the captured images back,
// syncs the data file and retires the old segment. Pages dirty at the
// switch are not in the new segment, so the first commit to touch each
// logs its whole image (stage). It counts and traces the checkpoint when
// it succeeds; a failure poisons the shard and leaves both segments for
// recovery.
func (m *Manager) checkpointAsync() {
	start := time.Now()
	pages := m.st.Pool().DirtyPages()
	next, err := m.nextSegment()
	var old *wal.Log
	if err == nil {
		m.logMu.Lock()
		old, err = m.log.Switch(next)
		m.logMu.Unlock()
	}
	if err != nil {
		m.poison(fmt.Errorf("txn: checkpoint: %w", err))
		m.unlockWriter()
		return
	}
	m.spare = nil
	m.old.Store(old)
	m.seg++
	r := &ckptRun{done: make(chan struct{})}
	m.run.Store(r)
	m.unlockWriter()

	if err := m.writeBack(old, pages); err != nil {
		m.poison(err)
	} else {
		d := time.Since(start)
		m.m.CheckpointDuration.ObserveDuration(d)
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
	}
	m.run.Store(nil)
	close(r.done)
}

// nextSegment returns the empty log the next switch goes on in: the
// spare the last checkpoint renewed, or — at a Manager's first switch —
// the log's other file, opened and renewed here.
func (m *Manager) nextSegment() (*wal.Log, error) {
	if m.spare != nil {
		return m.spare, nil
	}
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
	return next, nil
}

// writeBack is the part of an automatic checkpoint that runs off the
// writer mutex, in the order checkpointLocked keeps: WAL before data, also
// under NoSync. The old segment is synced first (free unless NoSync: the
// drained pipeline synced what it appended), then pages is written and
// the data file synced; only then is the old segment retired — renewed,
// empty, as the segment after the current one, and synced — and are the
// pages that are still live marked clean.
func (m *Manager) writeBack(old *wal.Log, pages []*storage.Page) error {
	pool := m.st.Pool()
	err := old.Sync()
	if err == nil {
		_, err = pool.WritePages(pages)
	}
	if err == nil {
		err = m.st.Sync()
	}
	if err != nil {
		return fmt.Errorf("txn: checkpoint flush: %w", err)
	}
	err = old.Renew(old.Gen() + 2)
	if err == nil {
		err = old.Sync()
	}
	if err != nil {
		return fmt.Errorf("txn: checkpoint: retire log segment: %w", err)
	}
	m.old.Store(nil)
	m.spare = old
	pool.MarkWritten(pages)
	return nil
}

// awaitCheckpoint returns once no automatic checkpoint is writing pages
// back. It needs no lock: a running one takes none of the locks its
// waiters may hold.
func (m *Manager) awaitCheckpoint() {
	if r := m.run.Load(); r != nil {
		<-r.done
	}
}

// checkpointCounted runs checkpointLocked and, if it succeeds, records
// its duration and span. Caller holds the drained writer mutex.
func (m *Manager) checkpointCounted() error {
	start := time.Now()
	if err := m.checkpointLocked(); err != nil {
		return err
	}
	d := time.Since(start)
	m.m.CheckpointDuration.ObserveDuration(d)
	m.sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
	return nil
}

// checkpointLocked is the checkpoint an explicit Checkpoint, a
// coordinator's checkpoint and Close run, all of it under the writer
// mutex: it waits out an automatic checkpoint still writing back, then
// flushes every dirty page and empties the current segment. Caller holds
// the writer mutex with the commit pipeline idle. A poisoned or read-only
// manager refuses here.
func (m *Manager) checkpointLocked() error {
	m.awaitCheckpoint()
	if m.opts.Storage.ReadOnly {
		return ErrReadOnly
	}
	if err := m.poisoned(); err != nil {
		return err
	}
	m.logMu.Lock()
	defer m.logMu.Unlock()
	// Order matters. A page may reach the data file only once the log
	// that can redo it (and undo nothing: redo-only) is on stable
	// storage, and under NoSync commits sit in the log's write buffer
	// until someone flushes it: a crash between a page write and that
	// flush would leave pages of transactions the log never heard of. So
	// the log is synced first (free unless NoSync: the drained pipeline
	// synced what it appended), then every dirty page is written and the
	// data file synced, and only then is the log reset. A failure
	// anywhere leaves the WAL intact, so recovery can redo the work — but
	// it also poisons the manager: after a failed flush the pool's
	// clean/dirty bookkeeping no longer proves what is on disk (and a
	// kernel that reported the fsync failure may have dropped the writes
	// while clearing the error — retrying could "succeed" without the
	// data being durable), so a later checkpoint could reset the WAL
	// without its pages actually persisted. Only a reopen re-establishes
	// the invariant.
	err := m.log.Sync()
	if err == nil {
		err = m.st.FlushAll()
	}
	if err != nil {
		err = fmt.Errorf("txn: checkpoint flush: %w", err)
	} else {
		err = m.log.Reset()
	}
	if err != nil {
		m.poison(err)
	}
	return err
}

// lockWriterIdle is lockWriterDrained with no automatic checkpoint
// writing pages back either: it waits one out off the mutex, and again if
// another began before it got the mutex. Holding the mutex keeps it so
// (a checkpoint begins only under it).
func (m *Manager) lockWriterIdle() {
	for {
		m.awaitCheckpoint()
		m.lockWriterDrained()
		if m.run.Load() == nil {
			return
		}
		m.unlockWriter()
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
