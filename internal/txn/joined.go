// The write path. Every write transaction on a shard — a standalone
// Manager.Write, a coordinated single-shard commit, a 2PC participant —
// takes the same steps, and each step is written once, here:
//
//	lockWriter  take the shard's writer mutex (or only try it:
//	            tryLockWriter); refuse a closed, read-only or
//	            poisoned shard
//	begin       a tracker, a writer view and a shard-local txid
//	fn          the caller's mutations, through the view
//	stage       encode Begin, what changed on each touched page (a delta,
//	            or the page's image the first time it is logged) and a
//	            commit (or 2PC prepare) record into pooled wal.Frames
//	submit      the in-memory commit point: advance the prepared epoch,
//	            then queue the run for the shard's group commit
//	await       lead the run's flight to the log if nobody has; then the
//	            acknowledgement: durable, or failed and healed
//
// and then publishes: a commit's epoch becomes the readers' epoch as
// part of its acknowledgement; a prepare's only when the coordinator
// has decided (decideJoinedLog, then publish).
//
// Where the mutex is released relative to the acknowledgement is the
// caller's one degree of freedom. A commit releases it between submit
// and await, so the next writer runs during the log write. A 2PC prepare
// holds it across await and on through the decide, which is what makes
// an in-doubt prepare the newest transaction in its shard's log.
//
// The coordinator accounts for a coordinated transaction once at its
// own level, so nothing here emits spans or records latency except the
// shard-level facts: commit and abort counts, batch sizes, fsyncs.
package txn

import (
	"fmt"
	"sync"
	"time"

	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// lockWriter takes the shard's writer mutex and validates that the shard
// can accept a write; on error the mutex is NOT held. If the log is past
// CheckpointBytes by a quarter or the shard's dirty pages have reached
// the pool's capacity (writers leading their own flights could otherwise
// outrun the checkpointer, and dirty pages are never evicted), it first
// waits out the checkpoint writing pages back, off the mutex, and runs
// the one still due then (checkpointIfDue). The whole wait is observed in
// WriterLockWait.
func (m *Manager) lockWriter() error {
	start := time.Now()
	if limit := m.opts.checkpointBytes(); limit >= 0 && (m.walBytes() >= limit+limit/4 || m.st.Pool().DirtyFull()) {
		m.checkpointIfDue()
	}
	m.mu.Lock()
	m.lockedAt = time.Now()
	m.m.WriterLockWait.ObserveDuration(m.lockedAt.Sub(start))
	return m.checkWritable()
}

// tryLockWriter is lockWriter without the checkpoint: ok is false, and
// nothing is held, when another writer has the mutex.
func (m *Manager) tryLockWriter() (ok bool, err error) {
	if !m.mu.TryLock() {
		return false, nil
	}
	m.lockedAt = time.Now()
	return true, m.checkWritable()
}

// checkWritable refuses a closed, read-only or poisoned shard, releasing
// the writer mutex its caller just took.
func (m *Manager) checkWritable() error {
	var err error
	switch {
	case m.isClosed():
		err = ErrClosed
	case m.opts.Storage.ReadOnly:
		err = ErrReadOnly
	default:
		if err = m.poisoned(); err == nil {
			return nil
		}
	}
	m.unlockWriter()
	return err
}

// unlockWriter releases the shard's writer mutex, observing how long it
// was held (WriterLockHold). Every release goes through it, and every
// acquisition notes its time in lockedAt.
func (m *Manager) unlockWriter() {
	m.m.WriterLockHold.ObserveDuration(time.Since(m.lockedAt))
	m.mu.Unlock()
}

// lockWriterQuiesced takes the shard's writer mutex with the shard
// quiesced: the commit pipeline idle — no batch queued or in flight — and
// no checkpoint writing pages back. It waits for both off the mutex
// (failFlights may need it; a write-back takes none of its waiters'
// locks), and again if either began anew before it got the mutex. Holding
// the mutex keeps it so: submitting and starting a checkpoint both need
// it. Unlike lockWriter it refuses nothing: its callers checkpoint or
// close, and check the shard themselves.
func (m *Manager) lockWriterQuiesced() {
	for {
		m.awaitCheckpoint()
		m.gc.waitIdle()
		m.mu.Lock()
		m.lockedAt = time.Now()
		if m.gc.pipelineIdle() && m.run.Load() == nil {
			return
		}
		m.unlockWriter()
	}
}

// begin starts a shard-local transaction. Caller holds the writer mutex
// (lockWriter) and keeps it at least until submit.
func (m *Manager) begin() (oid.TxID, *storage.TxView, *tracker) {
	tr := newTracker()
	v := m.st.OpenWriter(tr)
	m.nextTx++
	return oid.TxID(m.nextTx), v, tr
}

// framesPool recycles staging buffers: after a page-image-heavy commit
// the buffer is page-sized times touched pages, well worth keeping off
// the allocator.
var framesPool = sync.Pool{New: func() any { return new(wal.Frames) }}

// stage builds the transaction's WAL run — Begin, one record per touched
// page, then a commit record or, for a 2PC participant, a prepare record
// carrying gtid — and wraps it in the request submit takes. Caller holds
// the writer mutex: the pages are encoded once, straight into the frame
// buffer, while they are the transaction's final state — the superblock
// sealed into page 0 first, its one marshal of the transaction.
//
// A page is logged as a delta against the tracker's before-image when
// that image is what the log's current segment already holds for it: the
// page was dirty when this transaction first touched it, and a standing
// transaction logged it in this segment (its Seg; a rolled-back one put
// the page back as it found it — clean, or logged where it was).
// Otherwise — a clean page, one last logged before the log switched, an
// allocation, or a delta no smaller than the page — the whole image is
// logged. That first image in each segment is also what recovers a page
// the in-place checkpoint write tore, once the segments before it are
// retired: recovery never reads the data file.
func (m *Manager) stage(txid oid.TxID, tr *tracker, gtid uint64, prepare bool) (*commitReq, error) {
	m.st.SealSuper()
	touched := tr.touchedPages()
	fr := framesPool.Get().(*wal.Frames) // empty: recycle resets before Put
	req := &commitReq{gc: m.gc, txid: txid, tr: tr, fr: fr, prepare: prepare, done: make(chan error, 1)}
	fr.Begin(txid)
	var images, imageBytes, deltas, deltaBytes uint64
	for _, id := range touched {
		p, err := m.st.Get(id)
		if err != nil {
			req.recycle()
			return nil, err
		}
		mark := fr.Len()
		bi, had := tr.before[id]
		if had && bi.wasDirty && p.Seg() == m.seg && fr.PageDelta(txid, id, bi.data, p.Data) {
			deltas++
			deltaBytes += uint64(fr.Len() - mark)
		} else {
			fr.PageImage(txid, id, p.Data)
			images++
			imageBytes += uint64(fr.Len() - mark)
		}
		if had {
			bi.seg, bi.staged = p.Seg(), true
			tr.before[id] = bi
		}
		p.SetSeg(m.seg)
	}
	m.m.WALPageImages.Add(images)
	m.m.WALPageImageBytes.Add(imageBytes)
	m.m.WALPageDeltas.Add(deltas)
	m.m.WALPageDeltaBytes.Add(deltaBytes)
	if prepare {
		fr.Prepare(txid, gtid)
	} else {
		fr.Commit(txid)
	}
	return req, nil
}

// submit is the in-memory commit point: it advances the shard's
// prepared epoch — pages later transactions mutate COW against
// snapshots tagged at it, while readers keep pinning the durable epoch
// until the transaction is published — and queues the staged run. Caller
// holds the writer mutex, which is what makes log order submit order,
// and must await the request: in await this writer, or one queued behind
// it, leads the flight that splices, fsyncs (unless NoSync) and
// acknowledges it, in log order (group.go). start is the writer's clock,
// kept for the abort span of a failure. A request the pipeline refuses
// is failed here, under the same contract (see commitReq.await).
func (m *Manager) submit(req *commitReq, start time.Time) {
	req.epoch = m.st.Pool().AdvanceEpoch()
	req.start = start
	if err := m.gc.enqueue(req); err != nil {
		m.undo(req, err)
		req.done <- err
	}
}

// undo rolls a failed request's transaction back in memory. Caller
// holds the writer mutex (or works under its owner's hold, failFlights).
// A commit is counted and traced as an abort on the shard; a 2PC
// prepare is one part of a transaction its coordinator accounts for.
func (m *Manager) undo(r *commitReq, cause error) {
	if r.prepare {
		m.rollbackQuiet(r.tr)
		return
	}
	m.rollback(r.tr)
	if m.sink != nil {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: uint64(r.txid), Dur: time.Since(r.start), Err: cause.Error()})
	}
}

// await blocks until the request is acknowledged and returns its
// outcome, leading the flights that carry it to the log while it is
// still queued (groupCommitter.lead). nil: the run is durable, and a
// commit is visible to new readers. An error: the run has been erased
// from the log (or the shard poisoned if it could not be) and the
// transaction — commit or prepare — has already been rolled back on this
// shard; the caller must not roll it back again.
//
// The acknowledgement also means nothing references the staged frames
// any more — spliced and fsynced, or truncated away — so await is where
// they return to the pool, whatever the outcome.
func (r *commitReq) await() error {
	r.gc.lead(r)
	err := <-r.done
	r.recycle()
	return err
}

// recycle returns the request's frames, emptied, to the pool.
func (r *commitReq) recycle() {
	r.fr.Reset()
	framesPool.Put(r.fr)
	r.fr = nil
}

// decideJoinedLog writes (and fsyncs) the shard-local commit record for
// a prepared 2PC participant. The coordinator's decision record is
// already durable, so a failure here does not un-commit anything: the
// shard is poisoned (recovery will finish the job from the prepare
// record plus the coordinator log) and the caller still publishes — the
// commit IS durable. Caller holds the writer mutex; the shard's
// pipeline is idle (the prepare was the newest request, its ack came
// after every older flight's, and the mutex blocks new entrants), so
// touching the log under logMu is safe. Visibility is the caller's job
// (publish): the record-write with its fsync is kept out of the
// coordinator's publication bracket so readers never wait on it. The
// checkpoint the commit may make due was kicked by its prepare batch
// and runs once the writer mutex is free.
func (m *Manager) decideJoinedLog(txid oid.TxID) error {
	m.logMu.Lock()
	var err error
	if _, err = m.log.AppendCommit(txid); err == nil && !m.opts.NoSync {
		err = m.log.Sync()
	}
	m.logMu.Unlock()
	if err != nil {
		m.poison(fmt.Errorf("2pc decide (decision is durable in the coordinator log): %w", err))
	}
	return err
}

// publish makes a commit visible to new readers: the shard's durable
// epoch moves to the commit's, then the owning coordinator (if any) is
// told, so that it stops handing out a snapshot pinned before it. The
// caller acknowledges the commit only afterwards.
func (m *Manager) publish(epoch uint64) {
	m.st.Pool().AdvanceDurableTo(epoch)
	if m.opts.onPublish != nil {
		m.opts.onPublish()
	}
}

// Shard returns the manager's store tagged with its shard slot.
func (m *Manager) Shard() *storage.Shard {
	return &storage.Shard{Store: m.st, ID: m.opts.shardID}
}
