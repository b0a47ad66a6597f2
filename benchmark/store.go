package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"

	"ode"
	"ode/internal/faultfs"
)

// pinned is a version a reader may dereference by specific reference,
// with what the read must return.
type pinned struct {
	v        ode.VPtr[blob]
	obj, seq uint32
}

// versionLog is the versions one writer has had acknowledged, readable
// by every client: the owner fills a slot and then publishes the
// length, so a reader that loads the length sees the slots below it.
type versionLog struct {
	entries []pinned
	n       atomic.Int64
}

func (l *versionLog) add(p pinned) {
	n := l.n.Load()
	if int(n) == len(l.entries) {
		return // sized for the stream's writes; restarts cannot overflow it
	}
	l.entries[n] = p
	l.n.Store(n + 1)
}

// store is one open database with the harness's record of what it holds.
type store struct {
	w      *workload
	dir    string
	db     *ode.DB
	ptrs   []ode.Ptr[blob]
	pre    []pinned    // preloaded versions, object-major: pre[obj*versions+k]
	stamps []ode.Stamp // creation stamps, parallel to pre
	// acked counts acknowledged writes per object; a writer bumps it
	// after Update returns, never inside.
	acked  []atomic.Uint32
	logs   []versionLog // one per client
	counts *deviceCounts
}

const preloadBatch = 128

// fsFor returns the filesystem a workload's database runs on: nil (the
// OS, as production opens it) unless flushes are modeled or counted.
func fsFor(w *workload, counts *deviceCounts) ode.FS {
	if w.syncDelay == 0 && counts == nil {
		return nil
	}
	return &deviceFS{inner: faultfs.OS, syncDelay: w.syncDelay, count: counts}
}

// setup opens a fresh database in dir and preloads the workload's
// objects and version chains. It is the set-up the setup_s metric times.
func setup(w *workload, dir string, seed int64, fsys ode.FS, counts *deviceCounts) (*store, error) {
	opts := w.options
	opts.FS = fsys
	db, err := ode.Open(dir, &opts)
	if err != nil {
		return nil, err
	}
	s := &store{
		w: w, dir: dir, db: db, counts: counts,
		ptrs:   make([]ode.Ptr[blob], w.objects),
		pre:    make([]pinned, w.objects*w.versions),
		stamps: make([]ode.Stamp, w.objects*w.versions),
		acked:  make([]atomic.Uint32, w.objects),
		logs:   make([]versionLog, w.clients),
	}
	ty, err := ode.RegisterWithCodec[blob](db, "Blob", rawCodec{})
	if err != nil {
		db.Close()
		return nil, err
	}
	r := rand.New(rand.NewSource(seed ^ 0x0de))
	for lo := 0; lo < w.objects; lo += preloadBatch {
		hi := min(lo+preloadBatch, w.objects)
		err := db.Update(func(tx *ode.Tx) error {
			for obj := lo; obj < hi; obj++ {
				if err := s.preload(tx, ty, r, uint32(obj)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return s, nil
}

func (s *store) preload(tx *ode.Tx, ty *ode.Type[blob], r *rand.Rand, obj uint32) error {
	payload := newPayload(r, obj, s.w.size)
	p, err := ty.Create(tx, &payload)
	if err != nil {
		return err
	}
	s.ptrs[obj] = p
	for k := 0; k < s.w.versions; k++ {
		var v ode.VPtr[blob]
		if k == 0 {
			v, err = p.Pin(tx)
		} else {
			payload = nextPayload(payload, r.Uint32())
			if v, err = p.NewVersion(tx); err == nil {
				err = p.Set(tx, &payload)
			}
		}
		if err != nil {
			return err
		}
		info, err := v.Info(tx)
		if err != nil {
			return err
		}
		i := int(obj)*s.w.versions + k
		s.pre[i] = pinned{v: v, obj: obj, seq: uint32(k)}
		s.stamps[i] = info.Stamp
	}
	return nil
}

// baseSeq is the sequence of every object's latest version after the
// preload.
func (s *store) baseSeq() uint32 { return uint32(s.w.versions - 1) }

// sweep checks every object against the acknowledged-write counters:
// no acknowledged version is missing and none appeared unacknowledged.
// It returns the objects checked and how many failed.
func (s *store) sweep(note func(error)) (checked, failed int) {
	for lo := 0; lo < len(s.ptrs); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(s.ptrs))
		err := s.db.View(func(tx *ode.Tx) error {
			for obj := lo; obj < hi; obj++ {
				checked++
				if err := s.checkFinal(tx, uint32(obj)); err != nil {
					failed++
					note(err)
				}
			}
			return nil
		})
		if err != nil {
			failed++
			note(err)
		}
	}
	return checked, failed
}

func (s *store) checkFinal(tx *ode.Tx, obj uint32) error {
	acked := s.acked[obj].Load()
	n, err := s.ptrs[obj].VersionCount(tx)
	if err != nil {
		return err
	}
	if want := uint64(s.w.versions) + uint64(acked); n < want {
		return fmt.Errorf("object %d: %d versions, want %d: an acknowledged write is lost", obj, n, want)
	} else if n > want {
		return fmt.Errorf("object %d: %d versions, want %d: a version nobody was acknowledged for", obj, n, want)
	}
	b, err := s.ptrs[obj].Deref(tx)
	if err != nil {
		return err
	}
	if err := verify(*b, obj, s.w.size); err != nil {
		return err
	}
	if got, want := sequence(*b), s.baseSeq()+acked; got != want {
		return fmt.Errorf("object %d: latest sequence %d, want %d: an acknowledged write is lost", obj, got, want)
	}
	return nil
}

// liveBytes is the user payload the store holds: every live version's
// content.
func (s *store) liveBytes() int64 {
	versions := int64(len(s.ptrs)) * int64(s.w.versions)
	for i := range s.acked {
		versions += int64(s.acked[i].Load())
	}
	return versions * int64(s.w.size)
}

// diskBytes is the size of every file of the database directory.
func (s *store) diskBytes() (int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		st, err := os.Stat(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// discard closes the database and removes its directory.
func (s *store) discard() error {
	err := s.db.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
