// Package telemetry is the fleet telemetry backend: the offline half of the
// paper's Fig. 1 loop built as a real storage engine instead of the toy
// JSON buffer internal/cloud started as. Per-vehicle condensed logs,
// flight-recorder (blackbox) dumps, and metric snapshots flow through a
// batching ingestion front end into an LSM-tree store — an arena-backed
// sorted memtable, immutable sorted runs with bloom filters, size-tiered
// compaction, and a checksummed write-ahead log with crash-recovery
// replay — keyed by (vehicle, virtual-time). Kind-first range queries ("all
// reactive-brake events for vehicles 100–200 in hour 3") scan the query's
// rectangle of that one key space and re-sort the matches time-major.
//
// The store is single-threaded and deterministic: it runs no goroutine and
// imports no worker pool, and run files, the manifest, and query results are
// a pure function of the ingested events, so the same diff-based determinism
// tests that pin the simulator pin the storage engine (DESIGN.md §14).
package telemetry

import (
	"encoding/binary"
	"time"
)

// Kind classifies one telemetry event. The numeric value is part of the
// on-disk key encoding, so the enum is append-only.
type Kind uint16

const (
	// KindEpoch is the per-vehicle per-epoch condensed snapshot (state,
	// SoC, odometer, trips) — the fleet's heartbeat stream.
	KindEpoch Kind = iota
	// KindAssign records a dispatch decision (rider → vehicle).
	KindAssign
	// KindPickup records a rider boarding.
	KindPickup
	// KindDropoff records a completed trip.
	KindDropoff
	// KindCollision records an obstacle contact.
	KindCollision
	// KindReactiveBrake records a radar/sonar safety-path engagement.
	KindReactiveBrake
	// KindHalt records a vehicle leaving service (dead pack).
	KindHalt
	// KindBlackbox is one flight-recorder dump line (obs.Dump JSON).
	KindBlackbox
	// KindMetric is a metrics-registry snapshot blob.
	KindMetric
	// KindLog is one condensed operational-log line (per-cycle trace or
	// cloud.LogEntry style records).
	KindLog

	numKinds
)

// kindNames is the fixed Kind↔string table; order matches the enum.
var kindNames = [numKinds]string{
	"epoch", "assign", "pickup", "dropoff", "collision",
	"reactive-brake", "halt", "blackbox", "metric", "log",
}

// String returns the kind's stable name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a kind name; ok is false for unknown names.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// FleetVehicle is the pseudo-vehicle id carrying fleet-wide events (metric
// snapshots) that belong to no single vehicle.
const FleetVehicle uint32 = 1<<32 - 1

// Key orders the primary space: vehicle-major, then virtual time, then
// kind, then a sequence disambiguator assigned at ingest so concurrent
// events at one (vehicle, t, kind) coordinate keep their submission order.
type Key struct {
	Vehicle uint32
	TMs     uint64 // virtual milliseconds
	Kind    Kind
	Seq     uint32
}

// KeySize is the fixed encoded key length.
const KeySize = 18

// appendKey encodes k big-endian so lexicographic byte order equals the
// (vehicle, t, kind, seq) order.
//
//sov:hotpath
func appendKey(b []byte, k Key) []byte {
	var buf [KeySize]byte
	binary.BigEndian.PutUint32(buf[0:4], k.Vehicle)
	binary.BigEndian.PutUint64(buf[4:12], k.TMs)
	binary.BigEndian.PutUint16(buf[12:14], uint16(k.Kind))
	binary.BigEndian.PutUint32(buf[14:18], k.Seq)
	return append(b, buf[:]...)
}

// decodeKey reads an encoded key back.
//
//sov:hotpath
func decodeKey(b []byte) Key {
	return Key{
		Vehicle: binary.BigEndian.Uint32(b[0:4]),
		TMs:     binary.BigEndian.Uint64(b[4:12]),
		Kind:    Kind(binary.BigEndian.Uint16(b[12:14])),
		Seq:     binary.BigEndian.Uint32(b[14:18]),
	}
}

// Less orders keys (vehicle, t, kind, seq).
//
//sov:hotpath
func (k Key) Less(o Key) bool {
	if k.Vehicle != o.Vehicle {
		return k.Vehicle < o.Vehicle
	}
	if k.TMs != o.TMs {
		return k.TMs < o.TMs
	}
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	return k.Seq < o.Seq
}

// keyMax is the greatest key: the upper bound of an unbounded range.
var keyMax = Key{Vehicle: 1<<32 - 1, TMs: 1<<64 - 1, Kind: 1<<16 - 1, Seq: 1<<32 - 1}

// Event is one telemetry record: a key plus an opaque payload (typically
// compact JSON). Payload aliases store-owned arenas on the read path;
// callers that retain events must copy.
type Event struct {
	Key     Key
	Payload []byte
}

// VirtualMs converts a virtual-time duration to the key's millisecond
// resolution.
func VirtualMs(t time.Duration) uint64 {
	if t < 0 {
		return 0
	}
	return uint64(t / time.Millisecond)
}
