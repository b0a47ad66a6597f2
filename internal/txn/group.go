// Group commit: the other end of submit (joined.go). A writer runs fn,
// stages its WAL frames and submits under the shard's writer mutex; the
// append and the fsync — the expensive, latency-dominating step — are
// done for a whole batch of submitted transactions at once, by one of the
// writers waiting for them. Writers hold the writer mutex only for their
// in-memory work, N concurrent committers cost one fsync instead of N,
// and the fsyncs of up to maxFlights batches overlap. Every shard commits
// this way; NoSync only skips the fsync.
//
// Protocol (DESIGN.md §10):
//
//   - submit (Manager.submit, writer mutex held): advance the pool's
//     prepared epoch, enqueue the commitReq. Queue order is submit order
//     because enqueue happens under the mutex.
//   - lead (groupCommitter.lead, from await): "committer" is a token
//     under qmu, not a goroutine. A writer whose request is still queued
//     takes it when it is free, fewer than maxFlights flights are up and
//     no failure is pending, pops everything queued (bounded by maxBatch)
//     as one flight, splices it into the log and hands it to the file,
//     releases the token and runs the flight's fsync itself. A commit's
//     writer leads after releasing the writer mutex, a 2PC prepare's still
//     holding it. Under NoSync the leader settles instead of fsyncing.
//   - ack (groupCommitter.settle): flights are acknowledged strictly in
//     log order. Whoever's fsync returns settles its flight; if it is the
//     oldest, that goroutine lands it — durable LSN, durable epoch to the
//     newest member's, counters, every member's ack, the checkpointer's
//     kick if one is due — and then every younger flight whose fsync has
//     returned too. An fsync covers every byte written before it was
//     issued, so a flight is durable once its own fsync and every older
//     flight's have returned.
//   - failure (Manager.failFlights, run by the writer landing the failed
//     flight): when the oldest unacknowledged flight's append or fsync
//     failed, every submitted-but-not-durable transaction — that flight,
//     every younger one, even one whose fsync succeeded (it was staged on
//     the failed flight's effects), and anything queued — is rolled back
//     newest-first (their before-images only compose in that order), the
//     WAL is truncated back to the failed flight's start so the failed
//     commits can never be replayed, and only then does each member get
//     its own error. The manager is NOT poisoned: durable state is intact
//     and the next commit must succeed (see
//     TestFailedCommitSyncNeverResurfaces). Only a failure to heal the WAL
//     itself poisons.
//   - checkpoint (Manager.checkpointIfDue): a landed flight that leaves
//     one due kicks the checkpointer; a writer that finds the log past
//     CheckpointBytes by a quarter (lockWriter) waits out the checkpoint
//     running, and runs one itself only if one is still due then.
//
// Liveness: a queued request always has a goroutine that is claiming it
// or will be woken to claim it. Its writer awaits it, and leads unless
// the token is taken, maxFlights flights are up or a failure is pending;
// each of those ends in a broadcast on changed — the token released, a
// flight landed, the heal — that wakes it to try again.
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
	gc    *groupCommitter
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

// groupCommitter owns a shard's commit queue and its flights. Writers
// enqueue while holding the Manager's writer mutex; the queue is
// unbounded (a slice) so enqueue never blocks — essential, because the
// failure path takes the writer mutex and a bounded queue could deadlock
// against it.
type groupCommitter struct {
	m *Manager

	qmu sync.Mutex
	// changed is broadcast when a waiter's condition may hold: the token
	// released, a flight synced or landed, a failure healed.
	changed *sync.Cond
	q       []*commitReq
	// flights are the claimed and not yet acknowledged batches, oldest
	// first; landing says some goroutine is acknowledging them (settle).
	flights  []*flight
	landing  bool
	claiming bool  // the committer token: a writer is claiming and appending a flight
	failing  error // a flight failed: no claims, and enqueue refuses, until failFlights is done
}

// enqueue queues a submitted transaction for its writer to lead. Callers
// hold the writer mutex, which is what makes queue order submit order. It
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
	gc.q = append(gc.q, req)
	return nil
}

// lead returns once r has left the queue — claimed into a flight, or
// taken out by a failure — leading flights of the first maxBatch queued
// requests while it is still there.
func (gc *groupCommitter) lead(r *commitReq) {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	for slices.Contains(gc.q, r) {
		if gc.claiming || len(gc.flights) == maxFlights || gc.failing != nil {
			gc.changed.Wait()
			continue
		}
		n := min(len(gc.q), maxBatch)
		f := &flight{batch: gc.q[:n:n], began: time.Now()}
		gc.q = append([]*commitReq(nil), gc.q[n:]...) // drop the claimed requests' array
		gc.flights = append(gc.flights, f)
		gc.claiming = true
		gc.m.m.FlushesInFlight.Observe(uint64(len(gc.flights)))
		gc.qmu.Unlock()
		gc.fly(f)
		gc.qmu.Lock()
	}
}

// fly appends a claimed flight, releases the token and settles the
// flight once its fsync returns, all off the writer mutex and qmu. A
// failed append, or a NoSync flight, is settled before the token goes:
// nothing is claimed behind a failed append before settle has stopped
// the claims, and a NoSync shard lands each flight before the next.
func (gc *groupCommitter) fly(f *flight) {
	err := gc.m.appendFlight(f)
	fsync := err == nil && !gc.m.opts.NoSync
	if !fsync {
		gc.settle(f, err)
	}
	gc.qmu.Lock()
	gc.claiming = false
	gc.changed.Broadcast()
	gc.qmu.Unlock()
	if fsync {
		gc.settle(f, gc.m.log.SyncFile())
	}
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
		gc.changed.Wait()
	}
	gc.qmu.Unlock()
}

// appendFlight splices a flight's frames into the log and, unless
// NoSync, hands them to the file, so that an fsync issued next covers
// them. Log access is under logMu (checkpoints also touch the log); the
// writer mutex is NOT held, which is the entire point — writers prepare
// the next flight meanwhile.
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
	gc.changed.Broadcast()
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
		gc.changed.Broadcast()
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
		if !m.opts.NoSync {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(normals), Dur: time.Since(f.began)})
		}
		m.publish(normals[len(normals)-1].epoch)
		// Commits moves before BatchSize: Stats loads them the other way
		// round, so it never reports more batches than commits.
		m.m.Commits.Add(uint64(len(normals)))
		m.m.BatchSize.Observe(uint64(len(normals)))
	}
	for _, r := range f.batch {
		r.done <- nil
	}
	m.maybeKickCheckpoint()
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
		gc.changed.Wait()
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
	// The truncate syncs the current segment, whose commits build on the
	// old one's: under NoSync the old segment must be durable first, and
	// the checkpoint writing it back syncs it before its first page write.
	// (Otherwise the drained pipeline synced it before the switch.)
	if m.opts.NoSync {
		m.awaitCheckpoint()
	}
	m.logMu.Lock()
	if err := m.log.TruncateTo(failed.start); err != nil {
		// The failed commits might survive in the log and be replayed
		// after a crash even though we are about to report them failed.
		// That is the one thing recovery cannot fix: stop writing.
		m.poison(fmt.Errorf("cannot erase failed commit group from WAL: %w", err))
	}
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
