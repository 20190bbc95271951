package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The write-ahead log makes ingest durable before the memtable applies it:
// one framed record per ingest batch, in submission order (before the
// shard fan-out), so WAL bytes are identical for any shard/worker count.
// On open, the tail of the log past the last flush checkpoint is replayed
// through the normal ingest path; because flush decisions are a pure
// function of ingested bytes, a crashed store replays to byte-identical
// runs and manifest.
//
// Frame: u32 length | u32 crc32(body) | body. A truncated or corrupt tail
// (the crash case) stops replay at the last intact frame.

const walName = "wal.log"

// walWriter appends framed batch records to the log.
type walWriter struct {
	f   *os.File
	buf []byte
}

func openWAL(dir string) (*walWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// appendBatch frames and writes one serialized batch body.
func (w *walWriter) appendBatch(body []byte) error {
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(body)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(body))
	w.buf = append(w.buf, body...)
	_, err := w.f.Write(w.buf)
	return err
}

// reset truncates the log after a flush made its contents durable in runs.
func (w *walWriter) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	_, err := w.f.Seek(0, io.SeekStart)
	return err
}

func (w *walWriter) close() error { return w.f.Close() }

// errWALTail marks a torn final frame — expected after a crash, not an
// error for replay.
var errWALTail = errors.New("telemetry: torn wal tail")

// readWAL returns the intact batch bodies in the log. A torn or corrupt
// tail ends the scan without error (tornTail reports it); corruption in
// the middle of the log is a real error.
func readWAL(dir string) (batches [][]byte, tornTail bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	off := 0
	for off < len(b) {
		body, n, err := walFrame(b[off:])
		if err != nil {
			if errors.Is(err, errWALTail) {
				return batches, true, nil
			}
			return nil, false, fmt.Errorf("telemetry: wal frame at %d: %w", off, err)
		}
		batches = append(batches, body)
		off += n
	}
	return batches, false, nil
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
