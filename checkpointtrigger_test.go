package ode

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestCheckpointTriggersCountRuns: every automatic checkpoint a shard
// runs is counted under exactly one trigger, whoever runs it — the
// background checkpointer or a writer that found the log past the slack —
// and a kick that finds nothing due any more counts nothing. So with no
// explicit checkpoint, once the database is closed (its checkpointers
// stopped; Close counts under neither), the shards' CheckpointDuration
// counts sum to exactly CheckpointsByWALBytes + CheckpointsByDirtyPages.
func TestCheckpointTriggersCountRuns(t *testing.T) {
	const (
		writers = 4
		updates = 120
	)
	// Writers update one object each, whose few pages fill a 16 KiB log
	// first, or create objects, whose fresh pages fill a 16-page pool
	// before a 256 KiB log fills.
	for _, tc := range []struct {
		trigger         string
		checkpointBytes int64
		create          bool
	}{
		{"wal", 16 << 10, false},
		{"dirty", 256 << 10, true},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.trigger, shards), func(t *testing.T) {
				db := openDB(t, &Options{Shards: shards, NoSync: true, CheckpointBytes: tc.checkpointBytes, PoolPages: 16})
				tid, err := db.Engine().RegisterType("TriggerBlob")
				if err != nil {
					t.Fatal(err)
				}
				objs := make([]OID, writers)
				for i := range objs {
					if err := db.Update(func(tx *Tx) error {
						objs[i], _, err = tx.CreateRaw(tid, []byte("x"))
						return err
					}); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				for _, o := range objs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := 0; n < updates; n++ {
							if err := db.Update(func(tx *Tx) error {
								payload := bytes.Repeat([]byte{byte(n)}, 512)
								if tc.create {
									_, _, err := tx.CreateRaw(tid, payload)
									return err
								}
								_, err := tx.UpdateLatestRaw(o, payload)
								return err
							}); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				sms := db.Engine().Coordinator().Shards()
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				var ran, byWAL, byDirty uint64
				for _, sm := range sms {
					ran += sm.Metrics().CheckpointDuration.Snapshot().Count
					byWAL += sm.Metrics().CheckpointsByWALBytes.Load()
					byDirty += sm.Metrics().CheckpointsByDirtyPages.Load()
				}
				if ran == 0 {
					t.Fatalf("%d updates of 512 bytes and no automatic checkpoint", writers*updates)
				}
				if (tc.create && byDirty == 0) || (!tc.create && byWAL == 0) {
					t.Fatalf("no checkpoint counted by the %s trigger (%d by WAL bytes, %d by dirty pages)", tc.trigger, byWAL, byDirty)
				}
				if byWAL+byDirty != ran {
					t.Fatalf("%d automatic checkpoints ran, counted %d by WAL bytes + %d by dirty pages", ran, byWAL, byDirty)
				}
			})
		}
	}
}
