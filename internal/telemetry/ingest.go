package telemetry

import "time"

// Ingestor is the batching front end of the store: producers Add events
// during an epoch (the fleet does it from its serial barrier), and Flush
// submits the accumulated batch — one WAL record, one sort, one memtable
// merge. Payload bytes are copied at Add time into a
// reused arena, so producers may reuse their buffers immediately.
type Ingestor struct {
	store  *Store
	events []Event
	arena  []byte
}

// NewIngestor wraps a store.
func NewIngestor(store *Store) *Ingestor {
	return &Ingestor{store: store, arena: make([]byte, 0, 16<<10)}
}

// Store returns the underlying store.
func (in *Ingestor) Store() *Store { return in.store }

// Add queues one event. Seq is assigned at Flush; payload is copied.
func (in *Ingestor) Add(vehicle uint32, t time.Duration, kind Kind, payload []byte) {
	off := len(in.arena)
	in.arena = append(in.arena, payload...)
	in.events = append(in.events, Event{
		Key:     Key{Vehicle: vehicle, TMs: VirtualMs(t), Kind: kind},
		Payload: in.arena[off:len(in.arena):len(in.arena)],
	})
}

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

// IngestMetrics queues one metrics-registry snapshot blob (typically
// obs.Registry.WriteJSON output) as a fleet-wide KindMetric event.
func (in *Ingestor) IngestMetrics(t time.Duration, snapshot []byte) {
	in.Add(FleetVehicle, t, KindMetric, snapshot)
}
