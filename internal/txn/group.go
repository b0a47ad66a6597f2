// Group commit: the other end of submit (joined.go). A writer runs fn,
// stages its WAL frames and submits under the shard's writer mutex; the
// append and the fsync — the expensive, latency-dominating step — are
// done for a whole batch of submitted transactions at once, by the
// shard's committer goroutine and one goroutine per fsync. Writers hold
// the writer mutex only for their in-memory work, N concurrent
// committers cost one fsync instead of N, and the fsyncs of up to
// maxFlights batches overlap. Every shard commits this way; NoSync only
// skips the fsync.
//
// Protocol (DESIGN.md §10):
//
//   - submit (Manager.submit, writer mutex held): advance the pool's
//     prepared epoch, enqueue the commitReq. Queue order is submit order
//     because enqueue happens under the mutex.
//   - claim (groupCommitter.run, its own goroutine): pop everything
//     queued (bounded by maxBatch) as one flight, splice its members'
//     frames into the log and hand them to the file, issue the flight's
//     fsync without waiting for it, claim the next. At most maxFlights
//     flights are appended and unacknowledged at once. Under NoSync there
//     is no fsync and the committer settles each flight inline.
//   - ack (groupCommitter.settle): flights are acknowledged strictly in
//     log order. Whoever's fsync returns settles its flight; if it is the
//     oldest, that goroutine lands it — durable LSN, durable epoch to the
//     newest member's, counters, every member's ack, the checkpointer's
//     kick if one is due — and then every younger flight whose fsync has
//     returned too. An fsync covers every byte written before it was
//     issued, so a flight is durable once its own fsync and every older
//     flight's have returned. Members only ever wait on their own done
//     channel.
//   - failure (Manager.failFlights): when the oldest unacknowledged
//     flight's append or fsync failed, every submitted-but-not-durable
//     transaction — that flight, every younger one, even one whose fsync
//     succeeded (it was staged on the failed flight's effects), and
//     anything queued — is rolled back newest-first (their before-images
//     only compose in that order), the WAL is truncated back to the failed
//     flight's start so the failed commits can never be replayed, and only
//     then does each member get its own error. The manager is NOT
//     poisoned: durable state is intact and the next commit must succeed
//     (see TestFailedCommitSyncNeverResurfaces). Only a failure to heal
//     the WAL itself poisons.
//
// Batching needs no timer: while flights are in the air, new requests
// pile up in the queue and the next claim takes them all.
package txn

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/wal"
)

// maxBatch bounds how many submitted transactions one flight may cover,
// maxFlights how many flights may be appended and unacknowledged at once.
const (
	maxBatch   = 64
	maxFlights = 4
)

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
	// always the NEWEST request: last in the queue, or last in the
	// youngest flight. It is not a commit — the flight's counters, durable
	// epoch and BatchSize skip it — and a failure that takes it down runs
	// under its owner's hold of the writer mutex (failFlights).
	prepare bool
}

// flight is one claimed batch on its way to the device: appended as one
// run, made durable by one fsync, acknowledged as a unit.
type flight struct {
	batch []*commitReq
	start oid.LSN   // the log's end before the batch: where a failure truncates to
	end   oid.LSN   // the log's end after it: durable once the flight lands
	began time.Time // claim time, for the fsync span
	// synced is set, under qmu, once the flight's fsync has returned (or
	// its append failed, or NoSync skipped the fsync); err is the outcome.
	synced bool
	err    error
}

// groupCommitter owns the commit queue, the flights and the goroutine
// that claims them. Writers enqueue while holding the Manager's writer
// mutex; the queue is unbounded (a slice) so enqueue never blocks —
// essential, because the failure path takes the writer mutex and a
// bounded queue could deadlock against it.
type groupCommitter struct {
	m *Manager

	qmu  sync.Mutex
	more *sync.Cond // the committer may claim: enqueue, stop, a landed flight, a handled failure
	idle *sync.Cond // a flight synced or left: the pipeline may have drained
	q    []*commitReq
	// flights are the claimed and not yet acknowledged batches, oldest
	// first; landing says some goroutine is acknowledging them (settle).
	flights []*flight
	landing bool
	failing error // a flight failed: no claims, and enqueue refuses, until failFlights is done
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
// refuses — the request is not queued and the caller fails it — while a
// flight's failure is pending: the transaction was staged on that
// flight's doomed effects, and a 2PC owner queued now would wait under
// the very mutex failFlights needs.
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

// next blocks until there is work and room for another flight, then
// claims up to maxBatch requests as one. It returns nil only when
// stopped with nothing queued or in flight.
func (gc *groupCommitter) next() *flight {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	for len(gc.q) == 0 || len(gc.flights) == maxFlights || gc.failing != nil {
		if gc.stopped && len(gc.q) == 0 && len(gc.flights) == 0 {
			return nil
		}
		gc.more.Wait()
	}
	n := min(len(gc.q), maxBatch)
	f := &flight{batch: gc.q[:n:n], began: time.Now()}
	rest := make([]*commitReq, len(gc.q)-n)
	copy(rest, gc.q[n:])
	gc.q = rest
	gc.flights = append(gc.flights, f)
	gc.m.m.FlushesInFlight.Observe(uint64(len(gc.flights)))
	return f
}

// pipelineIdle reports whether no commit is queued or in flight. Only
// meaningful while the caller holds the writer mutex (which is what
// stops new requests from arriving).
func (gc *groupCommitter) pipelineIdle() bool {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	return len(gc.q) == 0 && len(gc.flights) == 0
}

// waitIdle blocks until the pipeline drains. The caller must NOT hold
// the writer mutex (failFlights may need it).
func (gc *groupCommitter) waitIdle() {
	gc.qmu.Lock()
	for len(gc.q) > 0 || len(gc.flights) > 0 {
		gc.idle.Wait()
	}
	gc.qmu.Unlock()
}

// stop makes the committer exit once nothing is queued or in flight;
// wait blocks until it has.
func (gc *groupCommitter) stop() {
	gc.qmu.Lock()
	gc.stopped = true
	gc.more.Broadcast()
	gc.qmu.Unlock()
}

func (gc *groupCommitter) wait() { <-gc.exited }

func (gc *groupCommitter) run() {
	defer close(gc.exited)
	m := gc.m
	for {
		f := gc.next()
		if f == nil {
			return
		}
		if err := m.appendFlight(f); err != nil || m.opts.NoSync {
			gc.settle(f, err)
			continue
		}
		go func() { gc.settle(f, m.log.SyncFile()) }()
	}
}

// appendFlight splices a flight's frames into the log and, unless
// NoSync, hands them to the file, so that an fsync issued next covers
// them. Log access is under logMu (checkpoints and Close also touch the
// log); the writer mutex is NOT held, which is the entire point — writers
// prepare the next flight meanwhile.
func (m *Manager) appendFlight(f *flight) error {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	f.start = m.log.End()
	for _, r := range f.batch {
		if _, err := m.log.AppendFrames(r.fr); err != nil {
			return err
		}
	}
	f.end = m.log.End()
	m.walBytes.Store(m.log.Size())
	if m.opts.NoSync {
		return nil
	}
	return m.log.Flush()
}

// settle records how a flight's fsync (or its append) ended, then lands
// flights in log order: unless another goroutine is already doing so,
// this one acknowledges the oldest flight if it has synced, and every
// younger one behind it that has — or, reaching one that failed, fails
// it and everything younger. A failed flight also stops claims and
// submits at once: whatever comes after it was staged on its effects.
func (gc *groupCommitter) settle(f *flight, err error) {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	f.synced, f.err = true, err
	if err != nil && gc.failing == nil {
		gc.failing = err
	}
	gc.idle.Broadcast()
	if gc.landing {
		return // the goroutine landing flights takes this one in turn
	}
	gc.landing = true
	for len(gc.flights) > 0 && gc.flights[0].synced {
		head := gc.flights[0]
		gc.qmu.Unlock()
		if head.err != nil {
			gc.m.failFlights(head.err) // drops every flight
		} else {
			gc.m.land(head)
		}
		gc.qmu.Lock()
		if head.err == nil {
			gc.flights = slices.Delete(gc.flights, 0, 1)
		}
		gc.more.Signal()
		gc.idle.Broadcast()
	}
	gc.landing = false
}

// land acknowledges a durable flight: the log's durable LSN, the
// readers' epoch, the counters, then every member's ack and the
// checkpointer's kick if one is due. Under NoSync "durable" means "in the
// log's write buffer", so the log is not told it is synced.
func (m *Manager) land(f *flight) {
	if !m.opts.NoSync {
		m.logMu.Lock()
		m.log.MarkDurable(f.end)
		m.logMu.Unlock()
	}
	// A 2PC prepare request can only be the last member (its owner holds
	// the writer mutex until it is acked, so nothing enqueues behind it).
	// It is durable now but not a commit: the rest is about the others.
	normals := f.batch
	if f.batch[len(f.batch)-1].prepare {
		normals = f.batch[:len(f.batch)-1]
	}
	// Advance the readers' epoch to the newest committed member before
	// acking anyone: a writer whose Write returned nil is entitled to have
	// the next reader see its transaction. A prepare is durable but not
	// committed — its epoch only becomes visible when the coordinator
	// decides.
	if len(normals) > 0 {
		m.m.BatchSize.Observe(uint64(len(normals)))
		if !m.opts.NoSync {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(normals), Dur: time.Since(f.began)})
		}
		m.publish(normals[len(normals)-1].epoch)
		m.addCommitsBatches(uint64(len(normals)), 1)
	}
	for _, r := range f.batch {
		r.done <- nil
	}
	m.maybeKickCheckpoint(int64(f.end))
}

// failFlights handles the failed append or fsync of the oldest
// unacknowledged flight: every submitted-but-not-durable transaction —
// that flight, every younger one and everything queued — is rolled back
// newest-first once every younger fsync has returned, the WAL is healed
// back to the failed flight's start, and then each member is acked with
// an error. Members of the failed flight get the cause; the others a
// wrapper naming why an fsync they were not part of took them down. The
// prepared epochs burned here are simply never made durable, so no reader
// ever pins them.
//
// All of it happens under the writer mutex, so no transaction is ever
// staged on state that is being rolled back. Normally failFlights takes
// the mutex; writers that reach submit while it waits are refused there
// (enqueue), newest first by construction. But when the newest request
// is a 2PC prepare — queued, or last in the youngest flight — its owner
// holds the mutex, parked in await until the ack below: taking the mutex
// would deadlock against it, and acking it first would let other writers
// in between the ack and the heal. So failFlights works under the
// owner's hold: the mutex is lent.
func (m *Manager) failFlights(cause error) {
	gc := m.gc
	gc.qmu.Lock()
	for slices.ContainsFunc(gc.flights, func(f *flight) bool { return !f.synced }) {
		gc.idle.Wait()
	}
	failed := gc.flights[0]
	newest := gc.flights[len(gc.flights)-1].batch
	if len(gc.q) > 0 {
		newest = gc.q
	}
	lent := newest[len(newest)-1].prepare
	gc.qmu.Unlock()
	if !m.opts.NoSync {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(failed.batch), Dur: time.Since(failed.began), Err: cause.Error()})
	}
	if !lent {
		m.mu.Lock()
	}
	// The mutex keeps the queue as it is; empty it with the flights, and
	// reopen both for the writers that come after the heal.
	gc.qmu.Lock()
	var suffix []*commitReq
	for _, f := range gc.flights {
		suffix = append(suffix, f.batch...)
	}
	suffix = append(suffix, gc.q...)
	clear(gc.flights)
	gc.flights, gc.q, gc.failing = gc.flights[:0], nil, nil
	gc.qmu.Unlock()
	for i := len(suffix) - 1; i >= 0; i-- {
		m.undo(suffix[i], cause)
	}
	m.logMu.Lock()
	if err := m.log.TruncateTo(failed.start); err != nil {
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
		if i < len(failed.batch) {
			r.done <- cause
		} else {
			r.done <- fmt.Errorf("aborted with failed commit group: %w", cause)
		}
	}
}

// maybeKickCheckpoint nudges the background checkpointer when a
// checkpoint is due (checkpointDue) and none is queued or running: the
// flights that find the log still due while the kicked checkpoint waits
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
