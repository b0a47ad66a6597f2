package ode

import (
	"errors"

	"ode/internal/core"
)

// CompactStats reports the effect of a compaction sweep: objects
// examined, full payloads demoted to deltas, dependent payloads
// promoted to full anchors, and payload bytes reclaimed.
type CompactStats = core.CompactStats

// compactBatch caps demotions+promotions per compaction transaction,
// bounding both commit size and how long a sweep holds a shard's writer
// mutex — a checkpoint or backup waiting on CheckpointExclusive is never
// stalled behind an unbounded sweep.
const compactBatch = 64

// Compact synchronously sweeps every shard to completion in bounded
// transactions: cold full payloads are demoted to deltas, over-deep
// chains get full anchors inserted. The write paths already demote each
// version as it goes cold; Compact is for history they never saw —
// written while Options.DeltaTier was off, or before AnchorInterval was
// lowered across a reopen. It requires Options.DeltaTier.
func (db *DB) Compact() (CompactStats, error) {
	if !db.eng.DeltaTier() {
		return CompactStats{}, errors.New("ode: Compact requires Options.DeltaTier")
	}
	return db.eng.CompactAll(compactBatch)
}
