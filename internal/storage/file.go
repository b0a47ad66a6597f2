package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"ode/internal/faultfs"
	"ode/internal/oid"
)

// ErrOutOfRange reports a read of a page beyond the end of the file.
var ErrOutOfRange = errors.New("storage: page out of range")

// File is the page-granular I/O layer over one file. It knows nothing
// about page contents beyond the checksum seal. All I/O goes through a
// faultfs.FS so the crash-consistency matrix can inject device faults;
// production uses faultfs.OS, a zero-cost passthrough.
type File struct {
	f        faultfs.File
	pageSize int
	// nPages is the number of pages physically present in the file. A
	// pool miss reads it off the pool mutex while a checkpoint extends
	// the file.
	nPages   atomic.Uint32
	readonly bool
}

// OpenFile opens (or creates) a page file on fsys (nil means the real
// OS filesystem). pageSize is only used when the file is created; an
// existing file's true page size is established by the superblock and
// validated by the Store.
func OpenFile(fsys faultfs.FS, path string, pageSize int, readonly bool) (*File, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	if pageSize < MinPageSize || pageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: page size %d out of range [%d,%d]", pageSize, MinPageSize, MaxPageSize)
	}
	flags := os.O_RDWR | os.O_CREATE
	if readonly {
		flags = os.O_RDONLY
	}
	f, err := fsys.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if size%int64(pageSize) != 0 {
		// A torn trailing page can only be an unflushed page the WAL will
		// re-write during recovery; round down rather than failing.
		// Recovery rewrites any page whose image is in the committed log.
		st0 := size - size%int64(pageSize)
		if !readonly {
			if err := f.Truncate(st0); err != nil {
				f.Close()
				return nil, fmt.Errorf("storage: truncate torn page: %w", err)
			}
		}
		size = st0
	}
	fl := &File{f: f, pageSize: pageSize, readonly: readonly}
	fl.nPages.Store(uint32(size / int64(pageSize)))
	return fl, nil
}

// PageSize returns the configured page size.
func (fl *File) PageSize() int { return fl.pageSize }

// NumPages returns the number of pages physically in the file.
func (fl *File) NumPages() uint32 { return fl.nPages.Load() }

// inRange returns ErrOutOfRange for a page beyond the end of the file.
func (fl *File) inRange(id oid.PageID) error {
	if n := fl.nPages.Load(); uint32(id) >= n {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, id, n)
	}
	return nil
}

// ReadPage reads page id into buf (which must be pageSize long) and
// verifies its checksum.
func (fl *File) ReadPage(id oid.PageID, buf []byte) error {
	if err := fl.inRange(id); err != nil {
		return err
	}
	if _, err := fl.f.ReadAt(buf, int64(id)*int64(fl.pageSize)); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: page %d (short file)", ErrOutOfRange, id)
		}
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if err := verifyChecksum(buf); err != nil {
		return fmt.Errorf("page %d: %w", id, err)
	}
	return nil
}

// writeRun seals each page image in buf — one or more whole pages — and
// writes them as pages first, first+1, … with one WriteAt.
func (fl *File) writeRun(first oid.PageID, buf []byte) error {
	if fl.readonly {
		return errors.New("storage: write on read-only file")
	}
	for off := 0; off < len(buf); off += fl.pageSize {
		sealChecksum(buf[off : off+fl.pageSize])
	}
	if _, err := fl.f.WriteAt(buf, int64(first)*int64(fl.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", first, err)
	}
	if end := uint32(first) + uint32(len(buf)/fl.pageSize); end > fl.nPages.Load() {
		fl.nPages.Store(end)
	}
	return nil
}

// maxRunPages bounds how many adjacent pages WriteSorted gathers into
// one write, and with it the scratch buffer a flush holds.
const maxRunPages = 64

// WriteSorted writes n page images, which page(i) yields in ascending
// page-id order, gathering each run of adjacent ids into one scratch
// buffer and one WriteAt — a checkpoint's dirty set is mostly runs (new
// heap pages are the file's contiguous tail). The images themselves are
// not modified (checksums are sealed into the scratch copy), so they may
// be pages concurrent readers hold. It returns how many of the n were
// written before the first error.
func (fl *File) WriteSorted(n int, page func(i int) (oid.PageID, []byte)) (int, error) {
	ps := fl.pageSize
	scratch := make([]byte, min(n, maxRunPages)*ps)
	for written := 0; written < n; {
		first, img := page(written)
		copy(scratch, img)
		k := 1
		for ; written+k < n && k < maxRunPages; k++ {
			id, img := page(written + k)
			if id != first+oid.PageID(k) {
				break
			}
			copy(scratch[k*ps:], img)
		}
		if err := fl.writeRun(first, scratch[:k*ps]); err != nil {
			return written, err
		}
		written += k
	}
	return n, nil
}

// Sync flushes the file to stable storage.
func (fl *File) Sync() error {
	if fl.readonly {
		return nil
	}
	if err := fl.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}

// Close closes the underlying file without flushing.
func (fl *File) Close() error { return fl.f.Close() }
