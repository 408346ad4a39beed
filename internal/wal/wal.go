// Package wal is a write-ahead intent log with per-record CRCs and
// torn-tail recovery. The migrator journals its watermark and the
// meta.json flip through it, so a process killed at any point reopens
// to a prefix of the record stream that was actually made durable.
//
// File format (all integers little-endian):
//
//	header: 8-byte magic "C56WAL01"
//	record: uint32 payloadLen | uint8 type | payload | uint32 crc
//
// The CRC is IEEE CRC-32 over the type byte followed by the payload, so
// neither field can be corrupted independently. Replay walks records
// from the header; the first short read, oversized length, or CRC
// mismatch marks the torn tail — everything before it is the durable
// prefix, everything from it on is truncated away. A torn tail is the
// expected result of dying mid-append and is not an error; a corrupt
// file magic is.
//
// Durability contract: Append only buffers the record in the OS page
// cache; Sync is the barrier that makes every record appended so far
// durable. Callers order their side effects around Sync — e.g. the
// migrator syncs the data disks BEFORE appending a watermark record and
// syncing the log, so a journaled watermark never claims stripes whose
// bytes could still be lost.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic identifies a wal file; bump the suffix on format changes.
var Magic = [8]byte{'C', '5', '6', 'W', 'A', 'L', '0', '1'}

// MaxPayload bounds a single record. Replay treats a larger length
// prefix as corruption, so a bit flip in the length field cannot make
// replay attempt a multi-gigabyte allocation.
const MaxPayload = 1 << 20

// ErrCorrupt is returned when the file cannot be a wal at all (bad
// magic). Torn tails are NOT corrupt — they replay as the durable
// prefix.
var ErrCorrupt = errors.New("wal: corrupt log")

const headerSize = 8
const recordOverhead = 4 + 1 + 4 // len + type + crc

// Record is one replayed log entry.
type Record struct {
	Type    uint8
	Payload []byte
}

// Log is an append-only intent log over one file.
type Log struct {
	f     *os.File
	off   int64 // end of the durable+buffered record stream
	syncs int64
	crash *CrashPoints // optional injector; nil-safe
}

// Open creates the log at path (writing the header) or opens an
// existing one, replaying its records. Records whose CRC verifies are
// returned in order; a torn tail is truncated so the next Append lands
// on a clean boundary. A file with a wrong magic fails with ErrCorrupt.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f}
	recs, err := l.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

// replay validates the header (writing it into an empty file), scans
// records, truncates the torn tail, and positions off at the end.
func (l *Log) replay() ([]Record, error) {
	st, err := l.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := l.f.WriteAt(Magic[:], 0); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.off = headerSize
		return nil, nil
	}
	var magic [8]byte
	if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, headerSize), magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	var recs []Record
	off := int64(headerSize)
	for {
		rec, next, ok := readRecord(l.f, off, st.Size())
		if !ok {
			break // torn tail: keep the durable prefix, drop the rest
		}
		recs = append(recs, rec)
		off = next
	}
	if off < st.Size() {
		if err := l.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	l.off = off
	return recs, nil
}

// readRecord parses one record at off. ok=false means the bytes at off
// are not a whole, CRC-clean record (torn tail).
func readRecord(f *os.File, off, size int64) (rec Record, next int64, ok bool) {
	var hdr [5]byte
	if off+int64(len(hdr)) > size {
		return rec, 0, false
	}
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return rec, 0, false
	}
	plen := binary.LittleEndian.Uint32(hdr[:4])
	if plen > MaxPayload {
		return rec, 0, false
	}
	total := int64(recordOverhead) + int64(plen)
	if off+total > size {
		return rec, 0, false
	}
	body := make([]byte, int(plen)+4)
	if _, err := f.ReadAt(body, off+5); err != nil {
		return rec, 0, false
	}
	payload, sum := body[:plen], binary.LittleEndian.Uint32(body[plen:])
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:5])
	crc.Write(payload)
	if crc.Sum32() != sum {
		return rec, 0, false
	}
	return Record{Type: hdr[4], Payload: payload}, off + total, true
}

// Append buffers one record at the end of the log. It is NOT durable
// until Sync returns.
func (l *Log) Append(typ uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: payload %d exceeds max %d", len(payload), MaxPayload)
	}
	buf := make([]byte, recordOverhead+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf[4] = typ
	copy(buf[5:], payload)
	crc := crc32.NewIEEE()
	crc.Write(buf[4 : 5+len(payload)])
	binary.LittleEndian.PutUint32(buf[5+len(payload):], crc.Sum32())
	if l.crash != nil {
		if n := l.crash.TornWrite(); n >= 0 && n < len(buf) {
			// Injected torn append: persist only a prefix of the record,
			// exactly what dying mid-write leaves behind.
			l.f.WriteAt(buf[:n], l.off)
			l.f.Sync()
			l.crash.Fire()
		}
	}
	if _, err := l.f.WriteAt(buf, l.off); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.off += int64(len(buf))
	return nil
}

// Sync is the log's durability barrier: all appended records become
// crash-safe. It also drives the crash injector — each completed sync
// is one countdown tick.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs++
	l.crash.Hit()
	return nil
}

// Syncs returns how many durability barriers have completed on this
// handle — the crash matrix uses it to size its injection sweep.
func (l *Log) Syncs() int64 { return l.syncs }

// Reset truncates the log back to an empty record stream (header only).
// The truncate is fsynced so a crash cannot resurrect pre-reset records.
func (l *Log) Reset() error {
	if err := l.f.Truncate(headerSize); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.off = headerSize
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs++
	l.crash.Hit()
	return nil
}

// Close closes the log file without syncing (callers Sync explicitly).
func (l *Log) Close() error { return l.f.Close() }

// Path returns the log file's path.
func (l *Log) Path() string { return l.f.Name() }

// SetCrashPoints arms a crash injector on this handle. Pass nil to
// disarm.
func (l *Log) SetCrashPoints(cp *CrashPoints) { l.crash = cp }

// CrashPoints returns the armed injector (nil when disarmed).
func (l *Log) CrashPoints() *CrashPoints { return l.crash }
