package telemetry

import (
	"encoding/binary"
	"errors"
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
// Frame: u32 length | u32 crc32(body) | body. A truncated or corrupt tail
// (the crash case) stops replay at the last intact frame.

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

// readWAL returns the intact batch bodies of wal.prev, then of wal.log,
// and whether wal.prev exists. A torn or corrupt frame ends its file's scan
// without error (framing is sequential, so nothing after it can be read);
// torn reports it.
func readWAL(dir string) (batches [][]byte, prev, torn bool, err error) {
	for _, name := range []string{walPrevName, walName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, false, false, err
		}
		prev = prev || name == walPrevName
		for off := 0; off < len(b); {
			body, n, err := walFrame(b[off:])
			if err != nil {
				torn = true
				break
			}
			batches = append(batches, body)
			off += n
		}
	}
	return batches, prev, torn, nil
}

// walFrame decodes one frame, distinguishing a torn tail (short frame or
// bad crc at end-of-buffer) from mid-log corruption by construction: any
// failure here is reported as a tail and the caller decides whether more
// intact frames follow (they cannot — framing is sequential).
func walFrame(b []byte) (body []byte, n int, err error) {
	if len(b) < 8 {
		return nil, 0, errWALTail
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if len(b) < 8+int(ln) {
		return nil, 0, errWALTail
	}
	body = b[8 : 8+ln]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, 0, errWALTail
	}
	return body, 8 + int(ln), nil
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
