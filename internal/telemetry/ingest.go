package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// Ingestor is the batching front end of the store: producers Add events
// during an epoch (the fleet does it from its serial barrier), and Flush
// submits the accumulated batch — one WAL record, one sort, one memtable
// merge. Payload bytes are copied at Add time into a
// reused arena, so producers may reuse their buffers immediately.
type Ingestor struct {
	store  *Store
	events []Event
	arena  []byte
	buf    []byte // payload-builder scratch loaned out via PayloadBuf
}

// NewIngestor wraps a store.
func NewIngestor(store *Store) *Ingestor {
	return &Ingestor{store: store, arena: make([]byte, 0, 16<<10)}
}

// Store returns the underlying store.
func (in *Ingestor) Store() *Store { return in.store }

// Add queues one event. Seq is assigned at Flush; payload is copied.
//
//sov:hotpath
func (in *Ingestor) Add(vehicle uint32, t time.Duration, kind Kind, payload []byte) {
	off := len(in.arena)
	in.arena = append(in.arena, payload...)
	in.events = append(in.events, Event{
		Key:     Key{Vehicle: vehicle, TMs: VirtualMs(t), Kind: kind},
		Payload: in.arena[off:len(in.arena):len(in.arena)],
	})
}

// PayloadBuf loans the caller a reset scratch buffer to build a payload
// in; pass the result to Add, which copies it out.
func (in *Ingestor) PayloadBuf() []byte { return in.buf[:0] }

// KeepPayloadBuf returns the (possibly grown) scratch so the next
// PayloadBuf call reuses its capacity.
func (in *Ingestor) KeepPayloadBuf(b []byte) { in.buf = b }

// Pending returns the queued event count.
func (in *Ingestor) Pending() int { return len(in.events) }

// Flush submits the batch to the store and resets the batcher.
func (in *Ingestor) Flush() error {
	if len(in.events) == 0 {
		return nil
	}
	err := in.store.Ingest(in.events)
	in.events = in.events[:0]
	in.arena = in.arena[:0]
	return err
}

// tRecord is the minimal schema the JSONL adapters need: every condensed
// per-cycle trace line and flight-recorder dump carries a t_ms field.
type tRecord struct {
	TMs float64 `json:"t_ms"`
}

// IngestJSONL reads newline-delimited JSON records (a condensed per-cycle
// trace from `sovsim -trace`, or any JSONL stream with a t_ms field) and
// queues each line as one event of the given kind for the vehicle.
// Malformed lines are skipped and counted, never fatal — a truncated
// upload must not hide the rest of the archive.
func (in *Ingestor) IngestJSONL(vehicle uint32, kind Kind, r io.Reader) (added, malformed int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec tRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.TMs < 0 {
			malformed++
			continue
		}
		in.Add(vehicle, time.Duration(rec.TMs*float64(time.Millisecond)), kind, line)
		added++
	}
	return added, malformed, sc.Err()
}

// IngestTrace queues a per-cycle condensed log (KindLog lines).
func (in *Ingestor) IngestTrace(vehicle uint32, r io.Reader) (added, malformed int, err error) {
	return in.IngestJSONL(vehicle, KindLog, r)
}

// IngestBlackbox queues a flight-recorder dump stream (KindBlackbox
// lines; obs.FlightRecorder JSONL dumps).
func (in *Ingestor) IngestBlackbox(vehicle uint32, r io.Reader) (added, malformed int, err error) {
	return in.IngestJSONL(vehicle, KindBlackbox, r)
}

// IngestMetrics queues one metrics-registry snapshot blob (typically
// obs.Registry.WriteJSON output) as a fleet-wide KindMetric event.
func (in *Ingestor) IngestMetrics(t time.Duration, snapshot []byte) {
	in.Add(FleetVehicle, t, KindMetric, snapshot)
}
