// Group commit: the other end of submit (joined.go). A writer runs fn,
// stages its WAL frames and submits under the shard's writer mutex; the
// append and the fsync — the expensive, latency-dominating step — are
// done by a single committer goroutine for a whole batch of submitted
// transactions at once. Writers therefore hold the writer mutex only for
// their in-memory work, and N concurrent committers cost one fsync
// instead of N. Every shard commits this way; NoSync only skips the
// fsync (publishBatch).
//
// Protocol (DESIGN.md §10):
//
//   - submit (Manager.submit, writer mutex held): advance the pool's
//     prepared epoch, enqueue the commitReq. Queue order is submit order
//     because enqueue happens under the mutex.
//   - publish (groupCommitter.run, its own goroutine): pop everything
//     queued (bounded by maxBatch), splice the members' frames into the
//     log, one fsync, advance the durable epoch to the newest member's,
//     then ack every member and kick the checkpointer if a checkpoint is
//     due — also after a batch that ends in a 2PC prepare. "Leader
//     election" is degenerate by construction: the committer goroutine is
//     the standing leader, and members only ever wait on their own done
//     channel.
//   - failure (Manager.failSuffix): if the batch's append or fsync
//     fails, every submitted-but-not-durable transaction — the failed
//     batch and anything queued behind it — is rolled back newest-first
//     (their before-images only compose in that order), the WAL is
//     truncated back to the batch start so the failed commits can never
//     be replayed, and only then does each member get its own error.
//     The manager is NOT poisoned: durable state is intact and the next
//     commit must succeed (see TestFailedCommitSyncNeverResurfaces).
//     Only a failure to heal the WAL itself poisons.
//
// Batching needs no timer to be effective: while a flush is in flight,
// new requests pile up in the queue and the next pop takes them all; and
// between two flushes the committer yields once (run), so the writers it
// has just acknowledged get their next commits into that pop.
package txn

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/wal"
)

// maxBatch bounds how many submitted transactions one group-commit
// fsync may cover.
const maxBatch = 64

// commitReq is one staged transaction on its way into the log: built by
// stage, handed over by submit, acknowledged through done (await).
type commitReq struct {
	txid  oid.TxID
	tr    *tracker    // for rollback if the commit fails
	fr    *wal.Frames // staged Begin/PageImage/Commit-or-Prepare run
	epoch uint64      // prepared epoch assigned at the commit point
	start time.Time   // the writer's clock, for an abort span
	done  chan error  // buffered(1); nil = durable
	// prepare marks a 2PC participant: its frames end in a prepare
	// record, not a commit. The coordinator holds the shard's writer
	// mutex from enqueue until after the ack, so a prepare request is
	// always the LAST member of its batch: nothing can be enqueued
	// behind it. It is not a commit — the batch's counters, durable
	// epoch and BatchSize skip it — and a batch that ends in one is
	// failed under its owner's hold of the writer mutex (failSuffix).
	prepare bool
}

// groupCommitter owns the commit queue and the goroutine that publishes
// batches. Writers enqueue while holding the Manager's writer mutex;
// the queue is unbounded (a slice) so enqueue never blocks — essential,
// because the committer itself takes the writer mutex on the failure
// path and a bounded queue could deadlock against it.
type groupCommitter struct {
	m *Manager

	qmu     sync.Mutex
	more    *sync.Cond // signalled on enqueue and stop
	idle    *sync.Cond // signalled when the pipeline may have drained
	q       []*commitReq
	busy    bool  // a batch is being flushed right now
	failing error // a batch failed and the committer wants the writer mutex
	stopped bool
	exited  chan struct{}
}

func newGroupCommitter(m *Manager) *groupCommitter {
	gc := &groupCommitter{m: m, exited: make(chan struct{})}
	gc.more = sync.NewCond(&gc.qmu)
	gc.idle = sync.NewCond(&gc.qmu)
	go gc.run()
	return gc
}

// enqueue hands a submitted transaction to the committer. Callers hold
// the writer mutex, which is what makes queue order submit order. It
// refuses — the request is not queued and the caller fails it — while
// the committer is waiting for the writer mutex to fail a batch: the
// transaction was staged on that batch's doomed effects, and a 2PC
// owner queued now would wait under the very mutex the committer needs.
func (gc *groupCommitter) enqueue(req *commitReq) error {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	if gc.failing != nil {
		return fmt.Errorf("aborted with failed commit group: %w", gc.failing)
	}
	if gc.stopped {
		// Unreachable by Close's ordering (writers are barred before the
		// committer stops), but an unacked request would hang its writer
		// forever, so fail it rather than trust that reasoning with a
		// goroutine's life.
		return ErrClosed
	}
	gc.q = append(gc.q, req)
	gc.more.Signal()
	return nil
}

// next blocks until there is work, then claims up to maxBatch requests.
// It returns nil only when stopped with an empty queue. busy is raised
// before the queue lock is released so pipelineIdle stays accurate.
func (gc *groupCommitter) next() []*commitReq {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	for len(gc.q) == 0 {
		if gc.stopped {
			return nil
		}
		gc.more.Wait()
	}
	n := len(gc.q)
	if n > maxBatch {
		n = maxBatch
	}
	batch := gc.q[:n:n]
	rest := make([]*commitReq, len(gc.q)-n)
	copy(rest, gc.q[n:])
	gc.q = rest
	gc.busy = true
	return batch
}

// beginFail opens the failure path for batch: it reports whether the
// writer mutex is already held on the committer's behalf, and if not,
// closes the queue (enqueue refuses) until endFail so the committer can
// take the mutex itself. The mutex is lent when a 2PC prepare is
// waiting — last in the batch or last in the queue: its owner holds the
// mutex until the committer acks it, and nothing can be queued behind.
func (gc *groupCommitter) beginFail(batch []*commitReq, cause error) (lent bool) {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	last := batch[len(batch)-1]
	if n := len(gc.q); n > 0 {
		last = gc.q[n-1]
	}
	if last.prepare {
		return true
	}
	gc.failing = cause
	return false
}

// endFail empties the queue — everything still in it was staged on top
// of the failed batch and goes down with it — and reopens it. Called
// under the writer mutex, held or lent.
func (gc *groupCommitter) endFail() []*commitReq {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	q := gc.q
	gc.q = nil
	gc.failing = nil
	return q
}

// batchDone lowers busy and wakes pipeline-idle waiters.
func (gc *groupCommitter) batchDone() {
	gc.qmu.Lock()
	gc.busy = false
	gc.idle.Broadcast()
	gc.qmu.Unlock()
}

// pipelineIdle reports whether no commit is queued or in flight. Only
// meaningful while the caller holds the writer mutex (which is what
// stops new requests from arriving).
func (gc *groupCommitter) pipelineIdle() bool {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	return len(gc.q) == 0 && !gc.busy
}

// waitIdle blocks until the pipeline drains. The caller must NOT hold
// the writer mutex (the committer needs it to fail a batch).
func (gc *groupCommitter) waitIdle() {
	gc.qmu.Lock()
	for len(gc.q) > 0 || gc.busy {
		gc.idle.Wait()
	}
	gc.qmu.Unlock()
}

// stop makes the committer exit once the queue is drained; wait blocks
// until it has.
func (gc *groupCommitter) stop() {
	gc.qmu.Lock()
	gc.stopped = true
	gc.more.Broadcast()
	gc.qmu.Unlock()
}

func (gc *groupCommitter) wait() { <-gc.exited }

func (gc *groupCommitter) run() {
	defer close(gc.exited)
	for {
		batch := gc.next()
		if batch == nil {
			return
		}
		gc.m.publishBatch(batch)
		gc.batchDone()
		// The acknowledgements made this batch's writers runnable, behind
		// this goroutine on its processor. Let them run before the next
		// claim: a writer that comes straight back with its next commit
		// and finds the flush already started by a few microseconds waits
		// out that flush and then its own, and with every writer doing so
		// half of all commits cost two flushes. Nothing runnable, nothing
		// lost: the yield returns at once.
		runtime.Gosched()
	}
}

// publishBatch makes a batch durable: splice every member's staged
// frames into the log, one fsync for the group, advance the durable
// epoch, ack the members. Log access is under logMu (checkpoints and
// Close also touch the log); the writer mutex is NOT held, which is the
// entire point — writers prepare the next batch meanwhile. It is the one
// place on the commit path NoSync matters: the fsync and its span are
// skipped, and "durable" means "in the log's write buffer".
func (m *Manager) publishBatch(batch []*commitReq) {
	flushStart := time.Now()
	fsync := !m.opts.NoSync
	m.logMu.Lock()
	startLSN := m.log.End()
	var err error
	for _, r := range batch {
		if _, err = m.log.AppendFrames(r.fr); err != nil {
			break
		}
	}
	if err == nil && fsync {
		err = m.log.Sync()
	}
	if err != nil {
		m.logMu.Unlock()
		if fsync {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(batch), Dur: time.Since(flushStart), Err: err.Error()})
		}
		m.failSuffix(batch, startLSN, err)
		return
	}
	size := m.log.Size()
	m.walBytes.Store(size)
	m.logMu.Unlock()

	// A 2PC prepare request can only be the last member (its owner holds
	// the writer mutex until it is acked, so nothing enqueues behind it).
	// It is durable now but not a commit: the rest is about the others.
	normals := batch
	if batch[len(batch)-1].prepare {
		normals = batch[:len(batch)-1]
	}
	// Durable. Advance the readers' epoch to the newest committed member
	// before acking anyone: a writer whose Write returned nil is
	// entitled to have the next reader see its transaction. A prepare is
	// durable but not committed — its epoch only becomes visible when
	// the coordinator decides.
	if len(normals) > 0 {
		m.m.BatchSize.Observe(uint64(len(normals)))
		if fsync {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(normals), Dur: time.Since(flushStart)})
		}
		m.publish(normals[len(normals)-1].epoch)
		m.addCommitsBatches(uint64(len(normals)), 1)
	}
	for _, r := range batch {
		r.done <- nil
	}
	m.maybeKickCheckpoint(size)
}

// failSuffix handles a failed batch append/fsync: every submitted-but-
// not-durable transaction — the batch plus anything queued behind it
// (staged on top of the batch's in-memory effects) — is rolled back
// newest-first, the WAL is healed back to the batch start, and then
// each member is acked with an error. Batch members get the cause;
// queued members get a wrapper naming why an fsync they were not part
// of took them down. The prepared epochs burned here are simply never
// made durable, so no reader ever pins them.
//
// All of it happens under the writer mutex, so no transaction is ever
// staged on state that is being rolled back. Normally the committer
// takes the mutex; writers that reach submit while it waits are failed
// there (enqueue refuses), newest first by construction. But when a 2PC
// prepare is in the batch or queued behind it, its owner holds the
// mutex, parked in await until the ack below — taking the mutex would
// deadlock against it, and acking it first would let other writers in
// between the ack and the heal. So the committer works under the
// owner's hold: the mutex is lent (beginFail).
func (m *Manager) failSuffix(batch []*commitReq, startLSN oid.LSN, cause error) {
	lent := m.gc.beginFail(batch, cause)
	if !lent {
		m.mu.Lock()
	}
	suffix := append(batch, m.gc.endFail()...)
	for i := len(suffix) - 1; i >= 0; i-- {
		m.undo(suffix[i], cause)
	}
	m.logMu.Lock()
	if err := m.log.TruncateTo(startLSN); err != nil {
		// The failed commits might survive in the log and be replayed
		// after a crash even though we are about to report them failed.
		// That is the one thing recovery cannot fix: stop writing.
		m.poison(fmt.Errorf("cannot erase failed commit group from WAL: %w", err))
	}
	m.walBytes.Store(m.log.Size())
	m.logMu.Unlock()
	if !lent {
		m.mu.Unlock()
	}
	for i, r := range suffix {
		if i < len(batch) {
			r.done <- cause
		} else {
			r.done <- fmt.Errorf("aborted with failed commit group: %w", cause)
		}
	}
}

// maybeKickCheckpoint nudges the background checkpointer when a
// checkpoint is due (checkpointDue) and none is queued or running: the
// batches that find the log still due while the kicked checkpoint waits
// for the writer mutex must not queue a second one, which would run on
// the log the first has just reset.
func (m *Manager) maybeKickCheckpoint(walSize int64) {
	due, byDirty := m.checkpointDue(walSize)
	if !due || !m.ckptPending.CompareAndSwap(false, true) {
		return
	}
	if byDirty {
		m.m.CheckpointsByDirtyPages.Inc()
	} else {
		m.m.CheckpointsByWALBytes.Inc()
	}
	m.ckptKick <- struct{}{} // never blocks: the last kick was taken before ckptPending cleared
}

// checkpointer is the background goroutine that runs checkpoints off
// the commit path. Errors are already recorded by Checkpoint (poisoned
// manager); ErrClosed just means shutdown won the race.
func (m *Manager) checkpointer() {
	defer m.ckptWG.Done()
	for {
		select {
		case <-m.ckptStop:
			return
		case <-m.ckptKick:
			if err := m.Checkpoint(); err != nil {
				return // poisoned or closed; either way no more checkpoints
			}
			m.ckptPending.Store(false)
		}
	}
}
