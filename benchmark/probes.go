package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ode"
	"ode/internal/btree"
	"ode/internal/codec"
	"ode/internal/core"
	"ode/internal/delta"
	"ode/internal/derefcache"
	"ode/internal/matcache"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/txn"
	"ode/internal/wal"
)

// A probe drives one layer's public functions from a single goroutine
// for a fixed number of calls, with the input shape of the workload
// that layer serves, and reports the median of probeRuns timings. It
// says what a layer costs alone; the spans say what it costs in place.
const probeRuns = 5

// timeCalls times n calls of fn.
func timeCalls(n int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

type prober struct {
	res   *result
	scale float64 // shrinks call counts and structure sizes in smoke runs
	err   error
}

// n scales a call count or a structure size.
func (p *prober) n(full int) int { return max(int(float64(full)*p.scale), 8) }

// value reports the median of probeRuns values of run; n is the calls
// behind each. After the first failure the prober does nothing.
func (p *prober) value(name, unit string, n int, run func() (float64, error)) {
	if p.err != nil {
		return
	}
	values := make([]float64, probeRuns)
	for i := range values {
		v, err := run()
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		values[i] = v
	}
	p.res.put(name, unit, median(values), probeRuns*n)
}

// ns reports the median time of one call, divided by per (the KiB a
// call handles). run performs and times n calls; it is free to set up
// and tear down around the timed part.
func (p *prober) ns(name, unit string, full int, per float64, run func(n int) (time.Duration, error)) {
	n := p.n(full)
	p.value(name, unit, n, func() (float64, error) {
		d, err := run(n)
		return float64(d) / float64(n) / per, err
	})
}

// calls is the common case: independent calls, nothing around them.
func (p *prober) calls(name string, full int, fn func(i int) error) {
	p.ns(name, "ns", full, 1, func(n int) (time.Duration, error) { return timeCalls(n, fn) })
}

// probeCells runs every probe in a scratch directory and adds its cell.
func probeCells(res *result, dir string, scale float64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &prober{res: res, scale: scale}
	for _, group := range []func(*prober, string) error{
		probeCaches, probeCodec, probeWAL, probeStorage, probeTxn, probeCore,
	} {
		if err := group(p, dir); err != nil {
			return err
		}
		if p.err != nil {
			return p.err
		}
	}
	res.put("txn.read_fanout_ratio", "ratio",
		ratio(res.value("txn.read_begin_end_ns"), res.value("txn.read_begin_end_s1_ns")), 1)
	return nil
}

// probeCaches: the two epoch-tagged LRUs at their default budget, with
// hot-read's 512-byte and mixed-delta's 1 KiB contents, and the
// histogram every instrumented path observes into.
func probeCaches(p *prober, _ string) error {
	const entries = 1024 // a quarter of the budget, so no bucket evicts
	r := rand.New(rand.NewSource(1))
	small, large := make([]byte, 512), make([]byte, 1024)
	r.Read(small)
	r.Read(large)

	dc := derefcache.New(core.DefaultDerefCacheBytes, 16, storage.MaxSlots)
	mc := matcache.New(core.DefaultCacheBytes, 16)
	vid := func(o uint64) uint64 { return o*3 + 1 } // a key whose halves differ, as real ids do
	for i := uint64(0); i < entries; i++ {
		dc.Put(i, int(i%shards), 1, vid(i), small)
		mc.Put(i, vid(i), int(i%shards), 1, large)
	}
	p.calls("derefcache.get_hit_ns", 200_000, func(i int) error {
		o := uint64(i % entries)
		if _, _, ok := dc.Get(o, int(o%shards), 1); !ok {
			return fmt.Errorf("object %d missed", o)
		}
		return nil
	})
	p.calls("derefcache.put_ns", 200_000, func(i int) error {
		o := uint64(i % entries)
		dc.Put(o, int(o%shards), 1, vid(o), small)
		return nil
	})
	p.calls("matcache.get_hit_ns", 200_000, func(i int) error {
		o := uint64(i % entries)
		if _, ok := mc.Get(o, vid(o), int(o%shards), 1); !ok {
			return fmt.Errorf("version %d missed", o)
		}
		return nil
	})
	p.calls("matcache.put_ns", 200_000, func(i int) error {
		o := uint64(i % entries)
		mc.Put(o, vid(o), int(o%shards), 1, large)
		return nil
	})
	var h obs.Histogram
	p.calls("obs.observe_ns", 1_000_000, func(i int) error {
		h.Observe(uint64(i))
		return nil
	})
	return nil
}

// probeCodec: encoding and decoding a record that carries a 1 KiB body,
// the page checksum, and the delta codec on a 1 KiB body with a 64-byte
// edit — the shapes version-write and mixed-delta produce.
func probeCodec(p *prober, _ string) error {
	r := rand.New(rand.NewSource(2))
	body := make([]byte, 1024)
	r.Read(body)
	encode := func(buf []byte) []byte {
		buf = codec.AppendU64(buf, 42)
		buf = codec.AppendU64(buf, 7)
		buf = codec.AppendUVarint(buf, 3)
		return codec.AppendBytes32(buf, body)
	}
	var buf []byte
	p.ns("codec.append_ns_per_kb", "ns/KiB", 200_000, 1, func(n int) (time.Duration, error) {
		return timeCalls(n, func(int) error {
			buf = encode(buf[:0])
			return nil
		})
	})
	rec := encode(nil)
	p.ns("codec.read_ns_per_kb", "ns/KiB", 200_000, 1, func(n int) (time.Duration, error) {
		return timeCalls(n, func(int) error {
			rd := codec.NewReader(rec)
			rd.U64()
			rd.U64()
			rd.UVarint()
			if got := rd.Bytes32(); len(got) != len(body) || rd.Err() != nil {
				return fmt.Errorf("decoded %d bytes: %v", len(got), rd.Err())
			}
			return nil
		})
	})
	page := make([]byte, 4096)
	r.Read(page)
	var crc uint32
	p.ns("codec.checksum_ns_per_kb", "ns/KiB", 200_000, 4, func(n int) (time.Duration, error) {
		return timeCalls(n, func(int) error {
			crc += codec.Checksum(page)
			return nil
		})
	})

	edited := nextPayload(body, 12345)
	var d []byte
	p.ns("delta.encode_ns_per_kb", "ns/KiB", 10_000, 1, func(n int) (time.Duration, error) {
		return timeCalls(n, func(int) error {
			d = delta.Encode(body, edited)
			return nil
		})
	})
	p.ns("delta.apply_ns_per_kb", "ns/KiB", 50_000, 1, func(n int) (time.Duration, error) {
		return timeCalls(n, func(int) error {
			out, err := delta.Apply(body, d)
			if err == nil && len(out) != len(edited) {
				err = fmt.Errorf("applied to %d bytes", len(out))
			}
			return err
		})
	})
	if p.err == nil {
		p.res.put("delta.ratio", "ratio", delta.Ratio(len(d), len(edited)), 1)
	}
	return nil
}

// probeWAL: staging and appending one commit of three 4 KiB page
// images, reading the log back, and the sandbox's real flush.
func probeWAL(p *prober, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	page := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(page)
	var fr wal.Frames
	p.calls("wal.stage_ns_per_commit", 20_000, func(i int) error {
		tx := oid.TxID(i + 1)
		fr.Reset()
		fr.Begin(tx)
		for pg := 1; pg <= 3; pg++ {
			fr.PageImage(tx, oid.PageID(pg), page)
		}
		fr.Commit(tx)
		return nil
	})
	const commits = 2000 // a 24 MiB log at full scale
	p.ns("wal.append_ns_per_commit", "ns", commits, 1, func(n int) (time.Duration, error) {
		if err := log.Reset(); err != nil {
			return 0, err
		}
		return timeCalls(n, func(int) error {
			_, err := log.AppendFrames(&fr)
			return err
		})
	})
	p.value("wal.scan_mb_per_s", "MiB/s", p.n(commits), func() (float64, error) {
		start := time.Now()
		err := log.Scan(func(wal.Record) error { return nil })
		return float64(log.Size()) / (1 << 20) / time.Since(start).Seconds(), err
	})
	p.calls("wal.sync_ns", 20, func(int) error {
		if _, err := log.AppendFrames(&fr); err != nil {
			return err
		}
		return log.Sync()
	})
	return nil
}

// probeStorage: one shard's pool, heap and B+tree at the default pool
// size over a file larger than the pool, as in cold-history. A B+tree
// handle is opened per call, as a one-operation transaction opens it.
func probeStorage(p *prober, dir string) error {
	m, err := txn.Create(filepath.Join(dir, "storage"), txn.Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer m.Close()
	records, keys := p.n(4096), p.n(100_000)
	r := rand.New(rand.NewSource(4))
	body := make([]byte, 1024)
	r.Read(body)
	key := func(i int) []byte {
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k, uint64(i)*2) // even keys, so SeekLE has gaps to land in
		return k
	}
	rids := make([]oid.RID, records)
	heapState := storage.NewHeapState()
	var root oid.PageID
	err = m.Write(func(v *storage.TxView) error {
		h := storage.NewHeap(v, heapState)
		for i := range rids {
			if rids[i], err = h.Insert(body); err != nil {
				return err
			}
		}
		t, err := btree.Create(v)
		if err != nil {
			return err
		}
		for _, i := range r.Perm(keys) {
			if err := t.Put(key(i), body[:8]); err != nil {
				return err
			}
		}
		root = t.Root()
		return nil
	})
	if err != nil {
		return err
	}
	if err := m.Checkpoint(); err != nil { // every page clean, so evictable
		return err
	}
	tree := func(v *storage.TxView) *btree.Tree { return btree.Open(v, root) }
	// inRead and inWrite time n calls inside one transaction.
	inRead := func(fn func(v *storage.TxView, i int) error) func(int) (time.Duration, error) {
		return func(n int) (d time.Duration, err error) {
			err = m.Read(func(v *storage.TxView) error {
				d, err = timeCalls(n, func(i int) error { return fn(v, i) })
				return err
			})
			return d, err
		}
	}
	inWrite := func(fn func(v *storage.TxView, i int) error) func(int) (time.Duration, error) {
		return func(n int) (d time.Duration, err error) {
			err = m.Write(func(v *storage.TxView) error {
				d, err = timeCalls(n, func(i int) error { return fn(v, i) })
				return err
			})
			return d, err
		}
	}
	hot := min(512, records)
	p.ns("storage.heap_read_ns", "ns", 100_000, 1, inRead(func(v *storage.TxView, i int) error {
		_, err := storage.NewHeap(v, nil).Read(rids[i%hot])
		return err
	}))
	p.ns("btree.get_ns", "ns", 20_000, 1, inRead(func(v *storage.TxView, i int) error {
		_, ok, err := tree(v).Get(key(i * 7919 % keys))
		if err == nil && !ok {
			err = fmt.Errorf("key %d missing", i*7919%keys)
		}
		return err
	}))
	p.ns("btree.seekle_ns", "ns", 20_000, 1, inRead(func(v *storage.TxView, i int) error {
		k := key(i * 7919 % keys)
		k[15]++ // odd: between two stored keys
		_, _, ok, err := tree(v).SeekLE(k)
		if err == nil && !ok {
			err = fmt.Errorf("no key at or below %x", k)
		}
		return err
	}))
	p.value("btree.ascend_ns_per_key", "ns/key", keys, func() (ns float64, err error) {
		err = m.Read(func(v *storage.TxView) error {
			start, seen := time.Now(), 0
			err := tree(v).Ascend(nil, nil, func(_, _ []byte) (bool, error) {
				seen++
				return true, nil
			})
			ns = float64(time.Since(start)) / float64(keys)
			if err == nil && seen != keys {
				err = fmt.Errorf("ascended %d keys, want %d", seen, keys)
			}
			return err
		})
		return ns, err
	})

	// Pool: resident pages, then a cyclic scan of the whole file — twice
	// the pool's size at full scale — which an LRU misses every time.
	pool := m.Store().Pool()
	filePages, err := dataPages(filepath.Join(dir, "storage"), 4096)
	if err != nil {
		return err
	}
	resident := min(64, filePages-1)
	p.calls("storage.pool_get_hit_ns", 500_000, func(i int) error {
		_, err := pool.Get(oid.PageID(1 + i%resident))
		return err
	})
	next := 1
	p.calls("storage.pool_get_miss_ns", 20_000, func(int) error {
		_, err := pool.Get(oid.PageID(next))
		if next++; next == filePages {
			next = 1
		}
		return err
	})
	p.calls("storage.pool_pin_unpin_ns", 500_000, func(int) error {
		pool.UnpinEpoch(pool.PinEpoch())
		return nil
	})

	// Writes last: they dirty the store the read probes used.
	p.ns("storage.heap_insert_ns", "ns", 2000, 1, inWrite(func(v *storage.TxView, _ int) error {
		_, err := storage.NewHeap(v, heapState).Insert(body)
		return err
	}))
	fresh := keys
	var t *btree.Tree
	p.ns("btree.put_ns", "ns", 5000, 1, inWrite(func(v *storage.TxView, i int) error {
		if i == 0 {
			t = tree(v)
		}
		fresh++
		err := t.Put(key(fresh), body[:8])
		root = t.Root()
		return err
	}))
	return nil
}

// dataPages is the page count of the probe store's page file.
func dataPages(dir string, pageSize int64) (int, error) {
	st, err := os.Stat(filepath.Join(dir, txn.DataFileName))
	if err != nil {
		return 0, err
	}
	return int(st.Size() / pageSize), nil
}

// probeTxn: beginning and ending a read on four shards and on one (the
// fan-out E18 suspects), and a commit that dirties one page on one
// shard against one on each of two, which takes two-phase commit.
func probeTxn(p *prober, dir string) error {
	open := func(name string, n int) (*txn.Coordinator, error) {
		return txn.OpenCoordinator(filepath.Join(dir, name), txn.Options{Shards: n, NoSync: true})
	}
	c4, err := open("coord4", shards)
	if err != nil {
		return err
	}
	defer c4.Close()
	c1, err := open("coord1", 1)
	if err != nil {
		return err
	}
	defer c1.Close()
	nothing := func(*txn.ReadTx) error { return nil }
	p.calls("txn.read_begin_end_ns", 100_000, func(int) error { return c4.Read(nothing) })
	p.calls("txn.read_begin_end_s1_ns", 100_000, func(int) error { return c1.Read(nothing) })

	// One page per shard to dirty.
	var page [2]oid.PageID
	err = c4.Write(func(w *txn.WriteTx) error {
		for s := range page {
			v, err := w.Join(s)
			if err != nil {
				return err
			}
			pg, err := v.Allocate(storage.PageSlotted)
			if err != nil {
				return err
			}
			page[s] = pg.ID
		}
		return nil
	})
	if err != nil {
		return err
	}
	dirty := func(n int) func(int) error {
		return func(i int) error {
			return c4.Write(func(w *txn.WriteTx) error {
				for s := 0; s < n; s++ {
					v, err := w.Join(s)
					if err != nil {
						return err
					}
					pg, err := v.Get(page[s])
					if err != nil {
						return err
					}
					v.Touch(pg).Body()[0] = byte(i)
				}
				return nil
			})
		}
	}
	p.calls("txn.write_1shard_ns", 5000, dirty(1))
	p.calls("txn.write_2pc_ns", 5000, dirty(2))
	return nil
}

// probeCore: the engine below the ode wrappers — a latest read that the
// dereference cache serves, a specific read that it does not, and
// newversion's index maintenance with the commit left out.
func probeCore(p *prober, dir string) error {
	w := &workload{objects: p.n(2048), size: 1024, versions: 2, clients: 1,
		options: ode.Options{Shards: shards, NoSync: true}}
	s, err := setup(w, filepath.Join(dir, "core"), 5, nil, nil)
	if err != nil {
		return err
	}
	defer s.discard()
	eng := s.db.Engine()
	p.calls("core.read_latest_ns", 50_000, func(i int) error {
		return eng.Read(func(tx *core.Tx) error {
			_, _, err := tx.ReadLatest(s.ptrs[i%w.objects].OID())
			return err
		})
	})
	p.calls("core.read_version_ns", 20_000, func(i int) error {
		old := s.pre[(i%w.objects)*w.versions].v
		return eng.Read(func(tx *core.Tx) error {
			_, err := tx.ReadVersion(old.OID(), old.VID())
			return err
		})
	})
	p.ns("core.new_version_ns", "ns", 2000, 1, func(n int) (d time.Duration, err error) {
		err = eng.Write(func(tx *core.Tx) error {
			d, err = timeCalls(n, func(i int) error {
				_, err := tx.NewVersion(s.ptrs[i%w.objects].OID())
				return err
			})
			return err
		})
		return d, err
	})
	return nil
}
