// Package wal implements the write-ahead log that makes Ode commits
// durable: an append-only file of CRC-framed records. The transaction
// layer logs what each transaction changed on every page it dirtied —
// a full after-image the first time a page is logged in the log's
// current segment, a positional delta against the page's previous
// logged state after that — followed by a commit record; recovery
// rebuilds the pages of committed transactions in log order.
//
// Framing: the file starts with an 8-byte header (u32 magic, u16
// generation, u16 version); each record is [u32 payloadLen][u32
// crc32c(payload)][payload]. A record's LSN is the file offset of its
// length word, so LSNs are nonzero and strictly increasing. A torn tail
// (incomplete or corrupt final record, as left by a crash mid-write) is
// detected by the CRC and truncated on open.
//
// Segments: a log may go on in another file (Switch), so that a
// checkpoint can write pages back while commits go on in the new file.
// The generation in each file's header orders the files of one log: a
// file written before logs had segments reads as generation 0.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"ode/internal/codec"
	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
)

// Record types.
const (
	RecBegin      uint8 = 1 // transaction start
	RecPageImage  uint8 = 2 // full page after-image
	RecCommit     uint8 = 3 // transaction durable
	RecAbort      uint8 = 4 // informational; aborted txns are ignored anyway
	RecCheckpoint uint8 = 5 // nothing writes it now (earlier versions did, just before a reset); recovery ignores it
	RecPrepare    uint8 = 6 // 2PC: shard-local prepare, carries the global txn id
	RecShardMap   uint8 = 7 // coordinator log only: shard-map image decided by tx
	RecPageDelta  uint8 = 8 // byte ranges of a page's after-image against its previous logged state
)

// headerSize is the fixed file header before the first record.
const headerSize = 8

// HeaderSize is the fixed file header size, exported so the sharded
// transaction layer can aggregate WAL sizes without double-counting
// per-file headers.
const HeaderSize = headerSize

const magic uint32 = 0x4F44454C // "ODEL"
const version = 1               // the header's last u16; the generation is the u16 before it

// ErrBadLog reports a log file whose header is not a WAL.
var ErrBadLog = errors.New("wal: bad log header")

// MaxRecord bounds record payloads against corrupt length words.
const MaxRecord = 1 << 26

// Record is a decoded log record.
type Record struct {
	LSN  oid.LSN
	Type uint8
	Tx   oid.TxID
	Page oid.PageID // RecPageImage, RecPageDelta
	Data []byte     // RecPageImage: the page image; RecPageDelta: its ranges (ApplyPageDelta); RecShardMap: the map image
	GTID uint64     // RecPrepare only: global (cross-shard) transaction id
}

// seqWriter adapts a positional faultfs.File to the io.Writer the
// append buffer needs, tracking the append offset explicitly (the VFS
// has no Seek, which keeps crash semantics simple).
type seqWriter struct {
	f   faultfs.File
	off int64
}

func (w *seqWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// Log is an open write-ahead log.
type Log struct {
	f    faultfs.File
	sw   *seqWriter
	w    *bufio.Writer
	path string
	gen  uint16        // the file's segment generation (its header)
	end  atomic.Uint64 // next append offset; atomic, so Size needs no lock
	// durable is how far the file is known to be on stable storage: moved
	// to end by whatever makes it so (Sync, TruncateTo) and by
	// MarkDurable after a SyncFile. Sync while durable == end is free, so
	// a caller that only needs "the log is on stable storage" may ask
	// without knowing who synced last.
	durable oid.LSN

	// one stages the single records appendOne logs. Appends already
	// serialize on the bufio writer, so one buffer per log is safe.
	one Frames

	// m is the registry the log counts in: records appended, and the
	// latency of every Sync that reached the device (whose count is the
	// number of syncs). The log's own until its owner hands it another.
	m *obs.Metrics
}

// SetMetrics moves the log onto its owner's registry. Call before the
// log is shared across goroutines (the manager does so at open).
func (l *Log) SetMetrics(m *obs.Metrics) { l.m = m }

// Metrics returns the registry the log counts in.
func (l *Log) Metrics() *obs.Metrics { return l.m }

// Open opens or creates the log at path on the real OS filesystem.
func Open(path string) (*Log, error) { return OpenFS(faultfs.OS, path) }

// OpenFS opens or creates the log at path on fsys (nil means the real
// OS), validates its header, scans for the end of the valid prefix, and
// truncates any torn tail.
func OpenFS(fsys faultfs.FS, path string) (*Log, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	sw := &seqWriter{f: f}
	l := &Log{f: f, sw: sw, w: bufio.NewWriterSize(sw, 1<<16), path: path, m: obs.New()}
	if size < headerSize {
		// Fresh (or hopelessly torn) log: write a new header.
		if err := writeHeader(f, 0); err != nil {
			f.Close()
			return nil, err
		}
		l.end.Store(headerSize)
		l.durable = headerSize
		sw.off = headerSize
		return l, nil
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		f.Close()
		return nil, ErrBadLog
	}
	if v := binary.BigEndian.Uint16(hdr[6:8]); v != version {
		f.Close()
		return nil, fmt.Errorf("%w: version %d", ErrBadLog, v)
	}
	l.gen = binary.BigEndian.Uint16(hdr[4:6])
	end, err := scanEnd(f, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	if int64(end) < size {
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	l.end.Store(uint64(end))
	l.durable = end
	sw.off = int64(end)
	return l, nil
}

// writeHeader empties f and writes a log header of generation gen.
func writeHeader(f faultfs.File, gen uint16) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], gen)
	binary.BigEndian.PutUint16(hdr[6:8], version)
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// scanEnd walks records from the header to find the end of the valid
// prefix (frames).
func scanEnd(f io.ReaderAt, size int64) (oid.LSN, error) {
	return frames(f, size, nil)
}

// frames walks the [len][crc][payload] frames of the first size bytes
// of f, from the header on, calling fn (when not nil) with each valid
// frame's LSN and payload, and returns the end of the valid prefix. Only
// evidence of a torn tail — EOF, a short read at the end of the file, an
// implausible length, a CRC mismatch — ends the prefix; a device error
// (EIO) is returned as an error instead, and so is fn's. Conflating the
// two (as scanEnd once did) turned a transient read fault at open time
// into silent truncation of committed transactions.
func frames(f io.ReaderAt, size int64, fn func(lsn oid.LSN, payload []byte) error) (oid.LSN, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, headerSize, size-headerSize), 1<<16)
	off := int64(headerSize)
	var frame [8]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return oid.LSN(off), nil // clean EOF or torn frame header
			}
			return 0, fmt.Errorf("wal: scan at %d: %w", off, err)
		}
		n := binary.BigEndian.Uint32(frame[0:4])
		crc := binary.BigEndian.Uint32(frame[4:8])
		if n == 0 {
			// No record has an empty payload (every payload starts with a
			// type byte) — but a zero-filled block, the classic artifact
			// of a torn multi-sector write, frames as one: length 0, CRC
			// 0, and crc32c("") is 0. Found by FuzzBatchTail; without
			// this check such a tail was accepted here and then failed
			// recovery's decode.
			return oid.LSN(off), nil
		}
		if n > MaxRecord || int64(n) > size-off-8 {
			return oid.LSN(off), nil // torn or corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return oid.LSN(off), nil
			}
			return 0, fmt.Errorf("wal: scan at %d: %w", off, err)
		}
		if codec.Checksum(payload) != crc {
			return oid.LSN(off), nil // torn write
		}
		if fn != nil {
			if err := fn(oid.LSN(off), payload); err != nil {
				return 0, err
			}
		}
		off += 8 + int64(n)
	}
}

// End returns the LSN one past the last durable-framed record.
func (l *Log) End() oid.LSN { return oid.LSN(l.end.Load()) }

// Size returns the current log size in bytes; any goroutine may ask.
func (l *Log) Size() int64 { return int64(l.end.Load()) }

// Gen returns the segment generation of the log's file. Of two files of
// one log, the one whose generation is one more (modulo 2^16) is newer.
func (l *Log) Gen() uint16 { return l.gen }

// Switch ends the log's current segment and goes on in next: an empty
// log over the log's other file, one generation on (Renew). From here on
// l appends to, syncs and scans next's file, and next is not used again.
// Switch returns the segment it ended as a Log of its own over the old
// file, holding everything appended so far (some of it perhaps still in
// its write buffer), for the caller to make durable and, once nothing in
// it is needed, to Renew as the segment after next, or Close. It touches
// no file. The caller serialises Switch with every other use of l.
func (l *Log) Switch(next *Log) (*Log, error) {
	if next.gen != l.gen+1 || next.Size() != headerSize {
		return nil, fmt.Errorf("wal: switch to %s: generation %d holding %d bytes, want an empty generation %d", next.path, next.gen, next.Size(), l.gen+1)
	}
	old := &Log{f: l.f, sw: l.sw, w: l.w, path: l.path, gen: l.gen, durable: l.durable, m: l.m}
	old.end.Store(l.end.Load())
	l.f, l.sw, l.w, l.path, l.gen, l.durable = next.f, next.sw, next.w, next.path, next.gen, next.durable
	l.end.Store(next.end.Load())
	return old, nil
}

// Frames is a staged run of records, framed byte-for-byte as the log
// file holds them but kept in memory: the only record encoder. The
// transaction layer builds a transaction's Begin, PageImage/PageDelta,
// Commit (or Prepare) run under the writer mutex, while the page images
// are stable, and whole runs are then spliced into the log with
// AppendFrames by the group committer, outside that mutex. Page bytes
// are copied at staging time, so a Frames never aliases live pool pages.
//
// Records are encoded once, directly into buf: beginRecord reserves the
// 8-byte frame header, the payload is appended in place with the codec
// Append* family, and endRecord patches the length and CRC back over
// the reservation. There is no intermediate payload buffer anywhere on
// the staging path.
type Frames struct {
	buf  []byte
	recs uint64
}

// Reset empties the staged run, keeping the buffer for reuse (the
// transaction layer pools Frames across commits).
func (fr *Frames) Reset() {
	fr.buf = fr.buf[:0]
	fr.recs = 0
}

// beginRecord reserves the 8-byte [len][crc] frame header and returns
// the payload's start offset; the caller appends the payload to fr.buf
// and closes the record with endRecord.
func (fr *Frames) beginRecord() int {
	fr.buf = append(fr.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return len(fr.buf)
}

// endRecord patches the frame header reserved by beginRecord with the
// length and CRC of everything appended since.
func (fr *Frames) endRecord(start int) {
	payload := fr.buf[start:]
	binary.BigEndian.PutUint32(fr.buf[start-8:start-4], uint32(len(payload)))
	binary.BigEndian.PutUint32(fr.buf[start-4:start], codec.Checksum(payload))
	fr.recs++
}

// record stages one record of the common shape: type, transaction id,
// then body verbatim (nil for the records that carry nothing else).
func (fr *Frames) record(typ uint8, tx oid.TxID, body []byte) {
	s := fr.beginRecord()
	fr.buf = codec.AppendU8(fr.buf, typ)
	fr.buf = codec.AppendUVarint(fr.buf, uint64(tx))
	fr.buf = append(fr.buf, body...)
	fr.endRecord(s)
}

// Begin stages tx's begin record.
func (fr *Frames) Begin(tx oid.TxID) { fr.record(RecBegin, tx, nil) }

// beginPageRecord opens a page record of the given kind — type,
// transaction id, page id — for the caller to append its body to.
func (fr *Frames) beginPageRecord(typ uint8, tx oid.TxID, id oid.PageID) int {
	s := fr.beginRecord()
	fr.buf = codec.AppendU8(fr.buf, typ)
	fr.buf = codec.AppendUVarint(fr.buf, uint64(tx))
	fr.buf = codec.AppendU32(fr.buf, uint32(id))
	return s
}

// PageImage stages a full after-image of page id for tx (copied).
func (fr *Frames) PageImage(tx oid.TxID, id oid.PageID, image []byte) {
	s := fr.beginPageRecord(RecPageImage, tx, id)
	fr.buf = append(fr.buf, image...)
	fr.endRecord(s)
}

// diffBlock is the stride PageDelta skips unchanged bytes by.
const diffBlock = 256

// PageDelta stages what changed on page id between before — the page's
// previous logged state — and after, as byte ranges
// [off u16][len u16][bytes]… in ascending offset order. It reports false,
// staging nothing, when the ranges would not be smaller than the page
// (or the two images differ in length): the caller logs a PageImage
// instead. A range closes at the first wholly unchanged word after it,
// so it never carries more than 7 unchanged bytes in a row.
func (fr *Frames) PageDelta(tx oid.TxID, id oid.PageID, before, after []byte) bool {
	if len(before) != len(after) || len(after) > 1<<16 {
		return false
	}
	s := fr.beginPageRecord(RecPageDelta, tx, id)
	body := len(fr.buf)
	n := len(after)
	for i := 0; i < n; {
		// Skip what is unchanged — most of the page: blocks (bytes.Equal
		// compares them with vector loads), then words, then the odd bytes.
		for i+diffBlock <= n && bytes.Equal(before[i:i+diffBlock], after[i:i+diffBlock]) {
			i += diffBlock
		}
		for i+8 <= n && binary.LittleEndian.Uint64(before[i:]) == binary.LittleEndian.Uint64(after[i:]) {
			i += 8
		}
		for i < n && before[i] == after[i] {
			i++
		}
		if i == n {
			break
		}
		// A range runs from the first changed byte through the words that
		// each hold a change, to the last changed byte of the last of them.
		start := i
		for i+8 <= n && binary.LittleEndian.Uint64(before[i:]) != binary.LittleEndian.Uint64(after[i:]) {
			i += 8
		}
		if i+8 > n { // no unchanged word ends it: it takes the odd bytes too
			i = n
		}
		end := i
		for before[end-1] == after[end-1] {
			end--
		}
		fr.buf = codec.AppendU16(fr.buf, uint16(start))
		fr.buf = codec.AppendU16(fr.buf, uint16(end-start))
		fr.buf = append(fr.buf, after[start:end]...)
		if len(fr.buf)-body >= n {
			fr.buf = fr.buf[:s-8]
			return false
		}
	}
	fr.endRecord(s)
	return true
}

// ApplyPageDelta overwrites page with the ranges of a RecPageDelta
// record (Record.Data). A range outside the page, or a truncated one, is
// an error: the log passed its CRC, so it is a record for another page
// size or a bug, and recovery must stop rather than guess. page may have
// been partly overwritten by then.
func ApplyPageDelta(page, delta []byte) error {
	for len(delta) > 0 {
		if len(delta) < 4 {
			return fmt.Errorf("wal: page delta: truncated range header (%d bytes)", len(delta))
		}
		off := int(binary.BigEndian.Uint16(delta[0:2]))
		n := int(binary.BigEndian.Uint16(delta[2:4]))
		delta = delta[4:]
		if n > len(delta) {
			return fmt.Errorf("wal: page delta: range of %d bytes, %d left in the record", n, len(delta))
		}
		if off+n > len(page) {
			return fmt.Errorf("wal: page delta: range [%d,%d) outside the %d-byte page", off, off+n, len(page))
		}
		copy(page[off:], delta[:n])
		delta = delta[n:]
	}
	return nil
}

// Commit stages tx's commit record.
func (fr *Frames) Commit(tx oid.TxID) { fr.record(RecCommit, tx, nil) }

// Prepare stages tx's 2PC prepare record, carrying the global txn id
// that ties this shard-local participant to its coordinator decision.
func (fr *Frames) Prepare(tx oid.TxID, gtid uint64) {
	s := fr.beginRecord()
	fr.buf = codec.AppendU8(fr.buf, RecPrepare)
	fr.buf = codec.AppendUVarint(fr.buf, uint64(tx))
	fr.buf = codec.AppendUVarint(fr.buf, gtid)
	fr.endRecord(s)
}

// Len returns the staged size in bytes.
func (fr *Frames) Len() int { return len(fr.buf) }

// Records returns the number of staged records.
func (fr *Frames) Records() uint64 { return fr.recs }

// AppendFrames appends a staged run to the log and returns the LSN of
// its first record. It only buffers; the run is durable after the next
// Sync.
func (l *Log) AppendFrames(fr *Frames) (oid.LSN, error) {
	lsn := l.End()
	if _, err := l.w.Write(fr.buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.end.Add(uint64(len(fr.buf)))
	l.m.WALAppends.Add(fr.recs)
	return lsn, nil
}

// appendOne logs a single record outside any transaction's staged run
// (a 2PC decide or coordinator decision, a shard-map overlay): staged into the log's own Frames and spliced with
// AppendFrames, so Frames stays the only record encoder.
func (l *Log) appendOne(typ uint8, tx oid.TxID, body []byte) (oid.LSN, error) {
	l.one.Reset()
	l.one.record(typ, tx, body)
	return l.AppendFrames(&l.one)
}

// AppendCommit logs tx's commit record.
func (l *Log) AppendCommit(tx oid.TxID) (oid.LSN, error) { return l.appendOne(RecCommit, tx, nil) }

// AppendShardMap logs a shard-map image proposed by global transaction
// tx. The image takes effect only if tx's commit record follows it in
// the same log (the coordinator log), so the map flip and the data move
// it describes share one atomic commit point.
func (l *Log) AppendShardMap(tx oid.TxID, image []byte) (oid.LSN, error) {
	return l.appendOne(RecShardMap, tx, image)
}

// Sync flushes buffered appends and fsyncs the log. A commit is durable
// only after Sync returns. With nothing appended since the log was last
// made durable it does nothing.
func (l *Log) Sync() error {
	if l.durable == l.End() {
		return nil
	}
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.SyncFile(); err != nil {
		return err
	}
	l.durable = l.End()
	return nil
}

// Flush hands buffered appends to the file without syncing it: what a
// SyncFile issued afterwards covers.
func (l *Log) Flush() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// SyncFile fsyncs the file and touches no other log state, so it may
// run beside appends and beside other SyncFiles: it makes durable what
// was flushed before it was issued. The caller reports what it covered
// with MarkDurable, once every older sync has returned too.
func (l *Log) SyncFile() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.m.WALFsyncLatency.ObserveDuration(time.Since(start))
	return nil
}

// MarkDurable records that the log is on stable storage up to lsn (a
// SyncFile covered it), so that Sync is free until the next append.
func (l *Log) MarkDurable(lsn oid.LSN) { l.durable = lsn }

// Reset truncates the log back to its header (TruncateTo) once nothing
// in it is needed: after a checkpoint has made the page file current (a
// shard's log), or once every decision is backed by local commit records
// (the coordinator's).
func (l *Log) Reset() error { return l.TruncateTo(headerSize) }

// Renew empties the log to a header of generation gen: the log's file
// is then ready to be the segment of that generation (Switch). It does
// not sync; until a Sync, a crash may leave the file as it was.
func (l *Log) Renew(gen uint16) error {
	l.w.Reset(l.sw)
	if err := writeHeader(l.f, gen); err != nil {
		return fmt.Errorf("wal: renew: %w", err)
	}
	l.sw.off = headerSize
	l.end.Store(headerSize)
	l.gen = gen
	l.durable = 0 // nothing of the renewed file is known to be on stable storage
	return nil
}

// TruncateTo rolls the log back to lsn, discarding buffered appends and
// truncating the file. The transaction layer uses it when a commit's
// records failed to reach stable storage (append or sync error): the
// caller reported the commit as failed, so its records must not survive
// for recovery to replay — otherwise a commit the application was told
// failed could silently reappear after a crash.
func (l *Log) TruncateTo(lsn oid.LSN) error {
	if lsn < headerSize || lsn > l.End() {
		return fmt.Errorf("wal: truncate to %v outside [%d,%v]", lsn, headerSize, l.End())
	}
	// Drop buffered bytes (and any sticky write error) first; the file
	// mutation below is then the only thing that can fail.
	l.w.Reset(l.sw)
	l.sw.off = int64(lsn)
	l.end.Store(uint64(lsn))
	if err := l.f.Truncate(int64(lsn)); err != nil {
		return fmt.Errorf("wal: truncate to %v: %w", lsn, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.durable = lsn
	return nil
}

// Scan iterates every record in LSN order. fn may retain Record.Data
// (each record's payload is freshly allocated). Every record up to the
// log's end must be valid: the torn tail was cut at open, so a frame
// that ends the valid prefix early is an error here.
func (l *Log) Scan(fn func(rec Record) error) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	end := l.Size()
	valid, err := frames(l.f, end, func(lsn oid.LSN, payload []byte) error {
		rec, err := decode(lsn, payload)
		if err != nil {
			return err
		}
		return fn(rec)
	})
	if err == nil && int64(valid) < end {
		err = fmt.Errorf("wal: invalid frame at %d", valid)
	}
	return err
}

func decode(lsn oid.LSN, payload []byte) (Record, error) {
	r := codec.NewReader(payload)
	rec := Record{LSN: lsn}
	rec.Type = r.U8()
	rec.Tx = oid.TxID(r.UVarint())
	if rec.Type == RecPageImage || rec.Type == RecPageDelta {
		rec.Page = oid.PageID(r.U32())
		rec.Data = payload[r.Offset():]
	}
	if rec.Type == RecPrepare {
		rec.GTID = r.UVarint()
	}
	if rec.Type == RecShardMap {
		rec.Data = payload[r.Offset():]
	}
	if r.Err() != nil {
		return Record{}, fmt.Errorf("wal: corrupt record at %v: %w", lsn, r.Err())
	}
	switch rec.Type {
	case RecBegin, RecPageImage, RecCommit, RecAbort, RecCheckpoint, RecPrepare, RecShardMap, RecPageDelta:
		return rec, nil
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d at %v", rec.Type, lsn)
	}
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
