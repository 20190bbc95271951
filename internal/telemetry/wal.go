package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The write-ahead log makes ingest durable before the memtable applies it:
// one framed record per ingest batch, in submission order (before the
// shard fan-out), so WAL bytes are identical for any shard/worker count.
// It is two files. wal.log takes the batches of the active memtable; when
// that memtable freezes, wal.log is renamed wal.prev and a fresh wal.log
// opened, and the writer job that commits the frozen memtable's run removes
// wal.prev. On open, both are replayed (wal.prev first) through the normal
// ingest path, skipping each batch the MANIFEST's seq bound says a run
// holds; because flush decisions are a pure function of ingested bytes, a
// crashed store replays to byte-identical runs and manifest.
//
// Frame: u32 length | u32 crc32(body) | body. A torn tail (the crash case)
// stops replay at the last intact frame; a corrupt frame with bytes after
// it fails the replay instead (readWAL).

const (
	walName     = "wal.log"
	walPrevName = "wal.prev"
	walTmpName  = "wal.tmp"
)

// walWriter appends framed batch records to wal.log.
type walWriter struct {
	f   *os.File
	buf []byte
}

// open opens dir's wal.log for append, creating it if need be.
func (w *walWriter) open(dir string) error {
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

// appendBatch frames and writes one serialized batch body.
func (w *walWriter) appendBatch(body []byte) error {
	w.buf = appendFrame(w.buf[:0], body)
	_, err := w.f.Write(w.buf)
	return err
}

// appendFrame appends body to b framed as walFrame reads it.
func appendFrame(b, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	return append(b, body...)
}

func (w *walWriter) close() error { return w.f.Close() }

// rewriteWAL makes bodies the whole log: it writes them to wal.tmp, renames
// that over wal.log and only then removes wal.prev, so a crash at any step
// leaves every batch in the files a replay reads. A replay that reads a
// batch twice (wal.prev and the new wal.log) skips the second by its seq.
func rewriteWAL(dir string, bodies [][]byte) error {
	var b []byte
	for _, body := range bodies {
		b = appendFrame(b, body)
	}
	tmp := filepath.Join(dir, walTmpName)
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, walName)); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, walPrevName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// errWALTail marks a torn final frame — expected after a crash, not an
// error for replay.
var errWALTail = errors.New("telemetry: torn wal tail")

// errWALCorrupt marks a frame whose crc fails with bytes after it: a crash
// tears only the last write, so this is damage, and replaying past it (or
// rewriting the log without it) would drop batches silently.
var errWALCorrupt = errors.New("corrupt frame before the end of the log")

// readWAL returns the intact batch bodies of wal.prev, then of wal.log,
// and whether wal.prev exists. A torn tail ends its file's scan without
// error and torn reports it; a corrupt frame before the end of a file is
// an error naming the file and the frame's offset.
func readWAL(dir string) (batches [][]byte, prev, torn bool, err error) {
	for _, name := range []string{walPrevName, walName} {
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, false, false, err
		}
		prev = prev || name == walPrevName
		var tail bool
		if batches, tail, err = walBatches(batches, path, b); err != nil {
			return nil, false, false, err
		}
		torn = torn || tail
	}
	return batches, prev, torn, nil
}

// walBatches appends to batches the bodies of the intact frames of b, the
// contents of the log file at path, and reports whether a torn tail ended
// them. Framing is sequential, so nothing after a bad frame can be read.
func walBatches(batches [][]byte, path string, b []byte) (_ [][]byte, torn bool, err error) {
	for off := 0; off < len(b); {
		body, n, err := walFrame(b[off:])
		if errors.Is(err, errWALTail) {
			return batches, true, nil
		}
		if err != nil {
			return nil, false, fmt.Errorf("telemetry: %s: offset %d: %w", path, off, err)
		}
		batches = append(batches, body)
		off += n
	}
	return batches, false, nil
}

// walFrame decodes the first frame of b, which runs to the end of its file.
// A frame whose claimed end reaches or passes the end of b is a torn tail
// (errWALTail): a short header, a length past the end, or a bad crc on the
// last frame. A bad crc with bytes after the frame is errWALCorrupt. The
// length field is not covered by the crc, so a corrupted length that points
// past the end reads as a tail too, and one that points short of it reads
// as corruption.
func walFrame(b []byte) (body []byte, n int, err error) {
	if len(b) < 8 {
		return nil, 0, errWALTail
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if len(b) < 8+int(ln) {
		return nil, 0, errWALTail
	}
	n = 8 + int(ln)
	body = b[8:n]
	if crc32.ChecksumIEEE(body) != crc {
		if n == len(b) {
			return nil, 0, errWALTail
		}
		return nil, 0, errWALCorrupt
	}
	return body, n, nil
}

// Batch body serialization: uvarint count, then per event key + uvarint
// payload length + payload, in submission order.

func appendBatchBody(b []byte, events []Event) []byte {
	b = binary.AppendUvarint(b, uint64(len(events)))
	for _, e := range events {
		b = appendKey(b, e.Key)
		b = binary.AppendUvarint(b, uint64(len(e.Payload)))
		b = append(b, e.Payload...)
	}
	return b
}

// decodeBatchBody parses a batch body back into events. Payload slices
// alias the body buffer.
func decodeBatchBody(b []byte) ([]Event, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("telemetry: bad batch count")
	}
	b = b[n:]
	// Every event takes a key and at least a one-byte payload length, so a
	// count the rest of the body cannot hold is corrupt; rejecting it here
	// keeps a count read from disk from sizing the allocation.
	if count > uint64(len(b)/(KeySize+1)) {
		return nil, errors.New("telemetry: batch count exceeds body")
	}
	events := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) < KeySize {
			return nil, errors.New("telemetry: short batch key")
		}
		k := decodeKey(b)
		b = b[KeySize:]
		pn, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < pn {
			return nil, errors.New("telemetry: short batch payload")
		}
		events = append(events, Event{Key: k, Payload: b[n : n+int(pn)]})
		b = b[n+int(pn):]
	}
	if len(b) != 0 {
		return nil, errors.New("telemetry: trailing batch bytes")
	}
	return events, nil
}
