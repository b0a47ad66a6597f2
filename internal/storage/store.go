package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ode/internal/faultfs"
	"ode/internal/oid"
)

// Options configures store creation and opening.
type Options struct {
	// PageSize applies only when creating a new store. Zero means
	// DefaultPageSize. Capped at 32768 so slotted offsets fit uint16.
	PageSize int
	// PoolPages is the buffer pool's capacity, clean and dirty pages
	// together. Zero means DefaultPoolPages; a value below MinPoolPages
	// is raised to it.
	PoolPages int
	// ReadOnly opens the store without write permission.
	ReadOnly bool
	// FS is the filesystem the store does its I/O through. Nil means
	// the real OS; tests install a fault-injecting implementation
	// (internal/faultfs) here.
	FS faultfs.FS
}

// MaxStorePageSize is the largest supported page size (slot offsets are
// uint16 and page size itself must be representable).
const MaxStorePageSize = 32768

// MutationTracker observes page mutations so the transaction layer can
// capture before-images (for abort) and dirty sets (for WAL logging).
// BeforeMutate is called on the first copy-on-write of a page in a
// transaction with the pre-image (which aliases the pool's immutable
// snapshot — do not mutate) and whether the page was already dirty;
// DidAllocate when a page id is newly allocated (no before-image
// exists); Tracked reports whether the transaction has already captured
// the page, letting the view skip redundant copies.
type MutationTracker interface {
	BeforeMutate(id oid.PageID, before []byte, wasDirty bool)
	DidAllocate(id oid.PageID)
	Tracked(id oid.PageID) bool
}

// Store combines the page file, buffer pool and superblock into the unit
// the engine programs against. All transactional access goes through a
// per-transaction TxView handle (OpenWriter/OpenReader); the Store
// itself holds no transaction state, only what writers carry from one
// transaction to the next: the heap's free-space cache and the id
// leases. Writers are serialised, so neither needs a lock.
type Store struct {
	file  *File
	pool  *Pool
	super super
	supPg *Page // live page 0, always resident
	// supStale is set while super holds changes of the running
	// transaction that page 0 does not: the page has been copied on
	// write for them (TxView.touchSuper), and SealSuper marshals them.
	supStale bool
	// heap is the heap's free-space cache (NewHeap with a nil state),
	// repaired by the transaction layer after a rollback.
	heap *HeapState
	// leases holds each counter's in-memory id lease (TxView.NextID).
	leases [NumCounters]lease
}

// SealSuper marshals the live superblock into page 0 if a transaction
// changed it since the last seal. The transaction layer calls it once
// per transaction, when it stages the touched pages; FlushAll calls it
// for storage-level callers that write without staging.
func (s *Store) SealSuper() {
	if s.supStale {
		s.super.marshalInto(s.supPg)
		s.supStale = false
	}
}

// ReloadSuper re-decodes the superblock from page 0's current image
// (used after abort restores before-images) and drops the unsealed
// changes with it.
func (s *Store) ReloadSuper() error {
	s.supStale = false
	return s.super.unmarshalFrom(s.supPg)
}

// Create initialises a brand-new store file at path. It fails if the
// file already exists and is non-empty.
func Create(path string, opts Options) (*Store, error) {
	ps := opts.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps < MinPageSize || ps > MaxStorePageSize {
		return nil, fmt.Errorf("storage: page size %d out of range [%d,%d]", ps, MinPageSize, MaxStorePageSize)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	if size, err := fsys.Stat(path); err == nil && size > 0 {
		return nil, fmt.Errorf("storage: %s already exists", path)
	}
	file, err := OpenFile(fsys, path, ps, false)
	if err != nil {
		return nil, err
	}
	s := &Store{file: file, pool: NewPool(file, poolCap(opts)), heap: NewHeapState()}
	s.super = super{pageSize: uint32(ps), nPages: 1}
	data := make([]byte, ps)
	s.supPg = s.pool.Install(0, data)
	s.pool.Pin(s.supPg)
	s.supPg.SetType(PageSuper)
	s.super.marshalInto(s.supPg)
	if err := s.FlushAll(); err != nil {
		file.Close()
		return nil, err
	}
	return s, nil
}

// Open opens an existing store, discovering its page size from the
// superblock.
func Open(path string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	ps, err := peekPageSize(fsys, path)
	if err != nil {
		return nil, err
	}
	file, err := OpenFile(fsys, path, ps, opts.ReadOnly)
	if err != nil {
		return nil, err
	}
	s := &Store{file: file, pool: NewPool(file, poolCap(opts)), heap: NewHeapState()}
	sp, err := s.pool.GetTyped(0, PageSuper)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("storage: superblock: %w", err)
	}
	s.supPg = sp
	s.pool.Pin(sp)
	if err := s.super.unmarshalFrom(sp); err != nil {
		file.Close()
		return nil, err
	}
	return s, nil
}

func poolCap(opts Options) int {
	if opts.PoolPages > 0 {
		return opts.PoolPages
	}
	return DefaultPoolPages
}

// peekPageSize reads the fixed-offset pageSize field from page 0 without
// knowing the page size yet.
func peekPageSize(fsys faultfs.FS, path string) (int, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	var hdr [HeaderSize + 16]byte
	if n, err := f.ReadAt(hdr[:], 0); err != nil && !(n == len(hdr) && err == io.EOF) {
		return 0, fmt.Errorf("storage: %s too short for a store: %w", path, err)
	}
	magic := binary.BigEndian.Uint64(hdr[HeaderSize : HeaderSize+8])
	if magic != Magic {
		return 0, fmt.Errorf("%w: %#x", ErrBadMagic, magic)
	}
	ver := binary.BigEndian.Uint32(hdr[HeaderSize+8 : HeaderSize+12])
	if ver != FormatVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	ps := binary.BigEndian.Uint32(hdr[HeaderSize+12 : HeaderSize+16])
	if ps < MinPageSize || ps > MaxStorePageSize {
		return 0, fmt.Errorf("storage: implausible page size %d in superblock", ps)
	}
	return int(ps), nil
}

// PageSize returns the store's page size.
func (s *Store) PageSize() int { return int(s.super.pageSize) }

// NumPages returns the logical page count (allocated, possibly not yet
// flushed).
func (s *Store) NumPages() uint64 { return s.super.nPages }

// Pool exposes the buffer pool (for stats and txn before-imaging).
func (s *Store) Pool() *Pool { return s.pool }

// HeapSpace returns the heap free-space cache writers share.
func (s *Store) HeapSpace() *HeapState { return s.heap }

// Get fetches a page.
func (s *Store) Get(id oid.PageID) (*Page, error) { return s.pool.Get(id) }

// GetTyped fetches a page and asserts its type.
func (s *Store) GetTyped(id oid.PageID, t PageType) (*Page, error) {
	return s.pool.GetTyped(id, t)
}

// Census reports page counts by type plus aggregate slotted-page
// utilisation — the space accounting odedump prints.
type Census struct {
	Super, Slotted, Overflow, BTree, Free uint64
	// SlottedLiveBytes is the sum of live cell bytes across slotted
	// pages; SlottedFreeBytes the reusable space in them.
	SlottedLiveBytes uint64
	SlottedFreeBytes uint64
	Records          uint64
}

// FlushAll writes every dirty page to the page file and syncs it, the
// superblock sealed first. Create and Close call it; the transaction
// layer checkpoints through the pool's DirtyPages, WritePages and
// MarkWritten instead.
func (s *Store) FlushAll() error {
	s.SealSuper()
	if err := s.pool.FlushDirty(); err != nil {
		return err
	}
	return s.file.Sync()
}

// Sync fsyncs the page file: what WritePages wrote is then durable.
func (s *Store) Sync() error { return s.file.Sync() }

// Close flushes and closes the store.
func (s *Store) Close() error {
	if err := s.FlushAll(); err != nil {
		s.file.Close()
		return err
	}
	return s.file.Close()
}

// CloseNoFlush closes the store without writing anything. The
// transaction layer uses it when the page file must not be touched: the
// caller has either already flushed, or an I/O failure means the WAL is
// the only trustworthy copy and recovery will rebuild the pages.
func (s *Store) CloseNoFlush() error { return s.file.Close() }
