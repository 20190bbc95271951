package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// modelEvents draws n events with no structure a real fleet has: times out
// of order and from 0, every kind, the fleet pseudo-vehicle, empty payloads.
// Seq is the submission index, which is what Ingest assigns.
func modelEvents(rng *rand.Rand, n int) []Event {
	out := make([]Event, n)
	for i := range out {
		v := uint32(rng.Intn(12))
		if rng.Intn(40) == 0 {
			v = FleetVehicle
		}
		p := make([]byte, rng.Intn(48))
		rng.Read(p)
		out[i] = Event{
			Key:     Key{Vehicle: v, TMs: uint64(rng.Intn(5000)), Kind: Kind(rng.Intn(int(numKinds))), Seq: uint32(i)},
			Payload: p,
		}
	}
	return out
}

// modelQuery draws a rectangle and a kind set: bounds that are 0 (open),
// inverted or past the data, and kind sets that are empty, single, several,
// repeated or complete, in no particular order.
func modelQuery(rng *rand.Rand) Query {
	var q Query
	if rng.Intn(3) > 0 {
		q.VehicleMin = uint32(rng.Intn(10))
		q.VehicleMax = uint32(rng.Intn(14))
		q.VehicleBounded = rng.Intn(2) == 0
	}
	if rng.Intn(3) > 0 {
		q.TMinMs = uint64(rng.Intn(4000))
		q.TMaxMs = uint64(rng.Intn(6000))
	}
	switch rng.Intn(5) {
	case 0: // empty: every kind
	case 1:
		q.Kinds = []Kind{Kind(rng.Intn(int(numKinds)))}
	case 2:
		for _, k := range rng.Perm(int(numKinds))[:2+rng.Intn(3)] {
			q.Kinds = append(q.Kinds, Kind(k))
		}
	case 3:
		k := Kind(rng.Intn(int(numKinds)))
		q.Kinds = []Kind{k, KindEpoch, k}
	case 4:
		for _, k := range rng.Perm(int(numKinds)) {
			q.Kinds = append(q.Kinds, Kind(k))
		}
	}
	return q
}

// bruteForce answers q from the ingested slice: filter, then sort by
// (kind, t, vehicle, seq).
func bruteForce(events []Event, q Query) []Event {
	vmax, tmax := q.VehicleMax, q.TMaxMs
	if vmax == 0 && !q.VehicleBounded {
		vmax = math.MaxUint32
	}
	if tmax == 0 {
		tmax = math.MaxUint64
	}
	var out []Event
	for _, e := range events {
		k := e.Key
		if k.Vehicle < q.VehicleMin || k.Vehicle > vmax || k.TMs < q.TMinMs || k.TMs > tmax {
			continue
		}
		if len(q.Kinds) > 0 && !slices.Contains(q.Kinds, k.Kind) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.TMs != b.TMs {
			return a.TMs < b.TMs
		}
		if a.Vehicle != b.Vehicle {
			return a.Vehicle < b.Vehicle
		}
		return a.Seq < b.Seq
	})
	return out
}

// checkKindQueries holds ScanByKind to the brute-force answer, row for row,
// on random queries, and checks that a false from fn ends the stream there.
func checkKindQueries(t *testing.T, s *Store, events []Event, rng *rand.Rand, label string) {
	t.Helper()
	nonEmpty := 0
	for i := 0; i < 40; i++ {
		q := modelQuery(rng)
		want := bruteForce(events, q)
		kinds := slices.Clone(q.Kinds)

		var got []Event
		err := s.ScanByKind(q, func(e Event) bool {
			got = append(got, Event{Key: e.Key, Payload: slices.Clone(e.Payload)})
			return true
		})
		if err != nil {
			t.Fatalf("%s: %+v: %v", label, q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %+v: %d rows, want %d", label, q, len(got), len(want))
		}
		for j := range got {
			if got[j].Key != want[j].Key || !bytes.Equal(got[j].Payload, want[j].Payload) {
				t.Fatalf("%s: %+v: row %d is %v %x, want %v %x", label, q, j, got[j].Key, got[j].Payload, want[j].Key, want[j].Payload)
			}
		}
		if !slices.Equal(q.Kinds, kinds) {
			t.Fatalf("%s: the query reordered the caller's Kinds: %v, was %v", label, q.Kinds, kinds)
		}
		if n, err := s.Count(q); err != nil || n != int64(len(want)) {
			t.Fatalf("%s: %+v: Count = %d, %v, want %d", label, q, n, err, len(want))
		}
		if len(want) == 0 {
			continue
		}
		nonEmpty++
		stopAt, calls := rng.Intn(len(want)), 0
		err = s.ScanByKind(q, func(e Event) bool {
			if e.Key != want[calls].Key {
				t.Fatalf("%s: %+v: stopping scan row %d is %v, want %v", label, q, calls, e.Key, want[calls].Key)
			}
			calls++
			return calls <= stopAt
		})
		if err != nil || calls != stopAt+1 {
			t.Fatalf("%s: %+v: fn called %d times (%v) after returning false on call %d", label, q, calls, err, stopAt+1)
		}
	}
	if nonEmpty < 15 {
		t.Fatalf("%s: only %d queries matched anything; the model is not testing much", label, nonEmpty)
	}
}

// TestScanByKindAgainstModel: the one read path behind kind queries, against
// a brute-force filter of what was ingested — over several runs plus a live
// memtable, after a clean reopen (runs only), and on a store recovered from
// a WAL tail (memtable only).
func TestScanByKindAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	events := modelEvents(rng, 1500)

	dir := t.TempDir()
	opts := Options{FlushBytes: 2 << 10}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, s, events, 70)
	if len(s.runs) < 3 || s.mem.len() == 0 {
		t.Fatalf("test wants >= 3 runs and a live memtable, got %d runs and %d buffered events", len(s.runs), s.mem.len())
	}
	checkKindQueries(t, s, events, rng, "runs+memtable")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.mem.len() != 0 {
		t.Fatalf("%d events in the memtable after a clean reopen", s.mem.len())
	}
	checkKindQueries(t, s, events, rng, "reopened")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walDir := t.TempDir()
	opts = Options{FlushBytes: 1 << 20} // no flush: everything stays in the WAL
	s, err = Open(walDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, s, events, 70)
	s.crash()
	s, err = Open(walDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.runs) != 0 || s.mem.len() != len(events) {
		t.Fatalf("test wants a memtable-only store, got %d runs and %d replayed events", len(s.runs), s.mem.len())
	}
	checkKindQueries(t, s, events, rng, "wal-recovered")
}

// TestVehicleZeroIsExpressible: vehicle 0 is a real vehicle, so a query must
// be able to name it alone; without VehicleBounded a zero VehicleMax still
// means "no upper bound", which is what the zero Query relies on.
func TestVehicleZeroIsExpressible(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events := makeEvents(20, 30)
	ingestInBatches(t, s, events, 200)

	wantZero := 0
	for _, e := range events {
		if e.Key.Vehicle == 0 {
			wantZero++
		}
	}
	for _, kinds := range [][]Kind{nil, {KindEpoch, KindReactiveBrake, KindCollision}} {
		q := Query{VehicleBounded: true, Kinds: kinds}
		if n, err := s.Count(q); err != nil || int(n) != wantZero {
			t.Errorf("Count(vehicles 0-0, kinds %v) = %d, %v, want vehicle 0's %d events", kinds, n, err, wantZero)
		}
		err := s.ScanByKind(q, func(e Event) bool {
			if e.Key.Vehicle != 0 {
				t.Errorf("ScanByKind(vehicles 0-0, kinds %v) returned %v", kinds, e.Key)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		q.VehicleBounded = false
		if n, err := s.Count(q); err != nil || int(n) != len(events) {
			t.Errorf("Count(zero vehicle range, kinds %v) = %d, %v, want all %d events", kinds, n, err, len(events))
		}
	}
}

// TestKindQueryEntryPoints: Count with kinds needs neither the order nor the
// payloads, so it never fills the ScanByKind buffer; WriteJSONL with kinds
// keeps the time-major order; a repeated kind selects its rows once; the
// caller's Kinds slice comes back as it went in.
func TestKindQueryEntryPoints(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events := modelEvents(rand.New(rand.NewSource(21)), 800)
	ingestInBatches(t, s, events, 200)

	kinds := []Kind{KindReactiveBrake, KindEpoch, KindReactiveBrake}
	q := Query{VehicleMin: 2, VehicleMax: 9, TMinMs: 500, TMaxMs: 4000, Kinds: kinds}
	want := bruteForce(events, q)
	if len(want) == 0 {
		t.Fatal("empty window")
	}

	n, err := s.Count(q)
	if err != nil || n != int64(len(want)) {
		t.Fatalf("Count = %d, %v, want %d", n, err, len(want))
	}
	if cap(s.kindRows) != 0 || cap(s.kindArena) != 0 {
		t.Fatalf("Count buffered %d rows / %d payload bytes; it should run the plain Scan", cap(s.kindRows), cap(s.kindArena))
	}

	var jsonl, wantJSONL bytes.Buffer
	if wrote, err := s.WriteJSONL(&jsonl, q); err != nil || wrote != int64(len(want)) {
		t.Fatalf("WriteJSONL wrote %d rows, %v, want %d", wrote, err, len(want))
	}
	for _, e := range want {
		wantJSONL.Write(AppendRowJSON(nil, e))
		wantJSONL.WriteByte('\n')
	}
	if !bytes.Equal(jsonl.Bytes(), wantJSONL.Bytes()) {
		t.Fatal("WriteJSONL with kinds is not the brute-force rows in (kind, t, vehicle, seq) order")
	}
	if !slices.Equal(kinds, []Kind{KindReactiveBrake, KindEpoch, KindReactiveBrake}) {
		t.Fatalf("the query reordered the caller's Kinds: %v", kinds)
	}
}
