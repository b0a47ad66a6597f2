// Online resharding: Coordinator.Reshard moves contiguous id ranges
// between shards while ordinary traffic continues. Each chunk is an
// ordinary presumed-abort 2PC transaction — copy the chunk's records
// src→dst, stage the map flip with WriteTx.SetShardMap — so the data
// move and the routing change share one decision record as their
// commit point and crash recovery needs no new machinery: an undecided
// chunk is presumed aborted (data still at the source, map unchanged),
// a decided one replays its shard commits and re-applies the map
// overlay from the decision log.
//
// The coordinator owns the generic skeleton (validation, growing the
// physical shard set, the per-step cursor loop, progress counters);
// what a chunk actually copies lives above, injected via ReshardHooks,
// because record formats belong to the core layer.
package txn

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ReshardStep is one planned range move: ids in [Lo, Hi) currently on
// Src migrate to Dst. Hi == 0 means the end of the id space. A step is
// processed in chunk-sized transactions, front to back.
type ReshardStep struct {
	Lo, Hi   uint64
	Src, Dst int
}

// MigrateResult reports one chunk's work: the new cursor (exclusive
// upper bound of the migrated prefix; 0 = the step ran to the end of
// the id space) and how much it moved.
type MigrateResult struct {
	Boundary uint64
	Objects  int
	Versions int
}

// ReshardHooks is the core layer's contribution to a reshard:
//
//   - Init runs once after the physical/logical shard counts are in
//     place, in its own transaction(s): initialise storage trees on
//     brand-new shards and re-open id allocation on revived ones.
//   - Moves plans the range moves for oldN→target. It must be safe to
//     re-plan after a crash mid-reshard (a resumed reshard sees the
//     partially-migrated map).
//   - Migrate copies one chunk of [cursor, step.Hi) from step.Src to
//     step.Dst inside w, WITHOUT touching the map; the coordinator
//     stages the flip for the returned boundary itself.
type ReshardHooks struct {
	Init    func(target int) error
	Moves   func(oldN, target int) ([]ReshardStep, error)
	Migrate func(w *WriteTx, step ReshardStep, cursor uint64) (MigrateResult, error)
}

// ReshardProgress is a point-in-time snapshot of reshard activity.
type ReshardProgress struct {
	Active   bool
	Target   int    // logical shard count being moved to (0 if never resharded)
	Chunks   uint64 // migration transactions committed by the latest reshard
	Objects  uint64 // objects moved by the latest reshard
	Versions uint64 // versions moved by the latest reshard
}

// ReshardProgress reports the latest reshard's progress; counters are
// cumulative within one Reshard call and freeze at its end.
func (c *Coordinator) ReshardProgress() ReshardProgress {
	return ReshardProgress{
		Active:   c.reshardActive.Load(),
		Target:   int(c.reshardTarget.Load()),
		Chunks:   c.reshardChunks.Load(),
		Objects:  c.reshardObjects.Load(),
		Versions: c.reshardVers.Load(),
	}
}

// Reshard changes the logical shard count to target and migrates id
// ranges until the map matches the plan h.Moves produces, all under
// live traffic. It is idempotent and crash-resumable: re-running after
// an interruption finishes the remaining moves.
func (c *Coordinator) Reshard(target int, h ReshardHooks) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.readOnly {
		return ErrReadOnly
	}
	if target < 1 || target > maxShards {
		return fmt.Errorf("txn: reshard target %d out of range [1, %d]", target, maxShards)
	}
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	c.reshardTarget.Store(int64(target))
	c.reshardChunks.Store(0)
	c.reshardObjects.Store(0)
	c.reshardVers.Store(0)
	c.reshardActive.Store(true)
	defer c.reshardActive.Store(false)

	oldN := c.rmap().N()
	if target > len(c.ms()) {
		if err := c.grow(target); err != nil {
			return err
		}
	}
	if c.rmap().N() != target {
		if err := c.setLogical(target); err != nil {
			return err
		}
	}
	if h.Init != nil {
		if err := h.Init(target); err != nil {
			return fmt.Errorf("txn: reshard init: %w", err)
		}
	}
	steps, err := h.Moves(oldN, target)
	if err != nil {
		return fmt.Errorf("txn: reshard plan: %w", err)
	}
	for _, step := range steps {
		if err := c.runStep(step, h); err != nil {
			return err
		}
	}
	return nil
}

// runStep migrates one planned range move in chunk transactions. The
// cursor walks [step.Lo, step.Hi); stretches not owned by step.Src
// (already moved by an interrupted earlier run, or intentionally
// assigned elsewhere) are skipped by jumping to the next map boundary.
func (c *Coordinator) runStep(step ReshardStep, h ReshardHooks) error {
	cursor := step.Lo
	for {
		if step.Hi != 0 && cursor >= step.Hi {
			return nil
		}
		if cursor == 0 && step.Lo != 0 {
			return nil // a previous chunk ran to the end of the id space
		}
		m := c.rmap()
		if m.ShardOf(cursor) != step.Src {
			nb := m.NextBoundary(cursor)
			if nb == 0 || (step.Hi != 0 && nb >= step.Hi) {
				return nil
			}
			cursor = nb
			continue
		}
		var res MigrateResult
		skipped := false
		err := c.Write(func(w *WriteTx) error {
			res, skipped = MigrateResult{}, false
			// Re-check ownership against the map pinned by THIS attempt:
			// flipping a range the source no longer owns would clobber a
			// concurrent (or resumed) assignment.
			if w.Map().ShardOf(cursor) != step.Src {
				skipped = true
				return nil
			}
			r, err := h.Migrate(w, step, cursor)
			if err != nil {
				return err
			}
			if r.Boundary == 0 {
				if step.Hi != 0 {
					return fmt.Errorf("txn: reshard chunk at %d reported end-of-space inside bounded step [%d, %d)", cursor, step.Lo, step.Hi)
				}
			} else if r.Boundary <= cursor || (step.Hi != 0 && r.Boundary > step.Hi) {
				return fmt.Errorf("txn: reshard chunk at %d returned non-advancing boundary %d", cursor, r.Boundary)
			}
			w.SetShardMap(w.Map().Assign(cursor, r.Boundary, step.Dst))
			res = r
			return nil
		})
		if err != nil {
			return fmt.Errorf("txn: reshard step [%d, %d) %d→%d at cursor %d: %w", step.Lo, step.Hi, step.Src, step.Dst, cursor, err)
		}
		if skipped {
			continue // the outer owner check advances past the foreign range
		}
		c.reshardChunks.Add(1)
		c.reshardObjects.Add(uint64(res.Objects))
		c.reshardVers.Add(uint64(res.Versions))
		if res.Boundary == 0 {
			return nil
		}
		cursor = res.Boundary
	}
}

// grow extends the physical shard set to target: creates the new
// data.NNN/wal.NNN pairs, makes their directory entries durable, then
// persists (physN=target, logical=target) as a shards.ode frame BEFORE
// swapping the routing bundle — a decided map overlay can therefore
// never reference a shard whose files might not exist after a crash.
// The new map carries no assignments into the new slots yet, so they
// are not Allocatable until the Init hook opens them.
func (c *Coordinator) grow(target int) error {
	fsys := c.opts.fsys()
	old := c.ms()
	phys := len(old)
	ms := append(make([]*Manager, 0, target), old...)
	fail := func(err error) error {
		for _, m := range ms[phys:] {
			m.Close()
		}
		return err
	}
	for i := phys; i < target; i++ {
		// An interrupted earlier grow can leave orphaned files for this
		// slot (created but never referenced by a durable frame). They
		// hold nothing recoverable — truncate and re-create.
		for _, name := range []string{ShardDataFileName(i), ShardWALFileName(i)} {
			path := filepath.Join(c.dir, name)
			if _, err := fsys.Stat(path); err == nil {
				f, oerr := fsys.OpenFile(path, os.O_RDWR|os.O_TRUNC, 0o644)
				if oerr != nil {
					return fail(fmt.Errorf("txn: reshard: truncate orphan %s: %w", name, oerr))
				}
				f.Close()
			} else if !errors.Is(err, fs.ErrNotExist) {
				return fail(fmt.Errorf("txn: reshard: stat %s: %w", name, err))
			}
		}
		m, err := Create(c.dir, c.shardOpts(i, nil))
		if err != nil {
			return fail(fmt.Errorf("txn: reshard: create shard %d: %w", i, err))
		}
		ms = append(ms, m)
	}
	if err := fsys.SyncDir(c.dir); err != nil {
		return fail(fmt.Errorf("txn: reshard: sync %s: %w", c.dir, err))
	}
	c.cmu.Lock()
	newMap := c.rmap().WithN(target)
	if err := appendShardsFrame(c.shardsFile, target, newMap); err != nil {
		c.cmu.Unlock()
		return fail(err)
	}
	c.beginPublish()
	c.routing.Store(&routing{ms: ms, rmap: newMap})
	c.endPublish()
	c.mapDirty = false // the frame folded any pending flip along the way
	c.cmu.Unlock()
	return nil
}

// setLogical persists and publishes a logical shard-count change with
// unchanged assignments (the merge entry point, and the no-grow half of
// a resumed split).
func (c *Coordinator) setLogical(target int) error {
	c.cmu.Lock()
	newMap := c.rmap().WithN(target)
	if err := appendShardsFrame(c.shardsFile, len(c.ms()), newMap); err != nil {
		c.cmu.Unlock()
		return err
	}
	c.beginPublish()
	c.routing.Store(&routing{ms: c.ms(), rmap: newMap})
	c.endPublish()
	c.mapDirty = false
	c.cmu.Unlock()
	return nil
}
