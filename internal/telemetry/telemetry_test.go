package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sov/internal/cloud"
)

// crash waits for a running writer job, then closes every file handle
// WITHOUT flushing the memtable or writing the MANIFEST — the crash-recovery
// tests' process-kill stand-in.
func (s *Store) crash() {
	s.join()
	s.wal.close()
	for _, r := range s.runs {
		r.close()
	}
}

// TestKeyEncodingOrderAgrees: lexicographic order of encoded keys must
// equal Key.Less, and decode must invert encode.
func TestKeyEncodingOrderAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 500)
	for i := range keys {
		keys[i] = Key{
			Vehicle: uint32(rng.Intn(1000)),
			TMs:     uint64(rng.Intn(100000)),
			Kind:    Kind(rng.Intn(int(numKinds))),
			Seq:     uint32(rng.Intn(1 << 20)),
		}
	}
	for i := 0; i < len(keys)-1; i++ {
		a, b := keys[i], keys[i+1]
		ea := appendKey(nil, a)
		eb := appendKey(nil, b)
		if got := decodeKey(ea); got != a {
			t.Fatalf("decode(encode(%v)) = %v", a, got)
		}
		if a.Less(b) != (bytes.Compare(ea, eb) < 0) && a != b {
			t.Fatalf("order disagreement: %v vs %v", a, b)
		}
	}
}

// TestKindNames: round-trip and stability of the kind table.
func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	if k, _ := KindByName("reactive-brake"); k != KindReactiveBrake {
		t.Fatal("reactive-brake mismapped")
	}
}

// TestBloomNoFalseNegatives: every inserted key tests positive; absent
// keys mostly test negative.
func TestBloomNoFalseNegatives(t *testing.T) {
	const n = 5000
	f := newBloom(n)
	for i := 0; i < n; i++ {
		f.add(hashKey(Key{Vehicle: uint32(i), TMs: uint64(i * 7)}))
	}
	for i := 0; i < n; i++ {
		if !f.test(hashKey(Key{Vehicle: uint32(i), TMs: uint64(i * 7)})) {
			t.Fatalf("false negative at %d", i)
		}
	}
	// Absent keys of three shapes: another vehicle range, and the neighbours
	// a point read for a missing event asks about (a present key's next Seq,
	// a present key's other Kind).
	for _, absent := range []func(i int) Key{
		func(i int) Key { return Key{Vehicle: uint32(i + n*10), TMs: uint64(i)} },
		func(i int) Key { return Key{Vehicle: uint32(i), TMs: uint64(i * 7), Seq: 1} },
		func(i int) Key { return Key{Vehicle: uint32(i), TMs: uint64(i * 7), Kind: KindReactiveBrake} },
	} {
		fp := 0
		for i := 0; i < n; i++ {
			if f.test(hashKey(absent(i))) {
				fp++
			}
		}
		if rate := float64(fp) / n; rate > 0.03 {
			t.Fatalf("false-positive rate %.3f, want < 3%%", rate)
		}
	}
	// Marshal round-trip preserves behavior.
	g := unmarshalBloom(f.appendTo(nil))
	if g == nil {
		t.Fatal("unmarshal failed")
	}
	if !g.test(hashKey(Key{Vehicle: 3, TMs: 21})) {
		t.Fatal("round-tripped filter lost a key")
	}
	if unmarshalBloom([]byte{1, 2, 3}) != nil {
		t.Fatal("bad bloom accepted")
	}
}

// TestMemtableMergeAndScan: out-of-order batches merge into global key
// order; get and the scan cursor agree.
func TestMemtableMergeAndScan(t *testing.T) {
	m := newMemtable(1 << 10)
	var batch []memEntry
	put := func(keys ...Key) {
		batch = batch[:0]
		for _, k := range keys {
			batch = append(batch, m.put(k, []byte(fmt.Sprintf("p%d-%d", k.Vehicle, k.TMs))))
		}
		m.mergeBatch(batch)
	}
	put(Key{Vehicle: 5, TMs: 10}, Key{Vehicle: 5, TMs: 30})
	put(Key{Vehicle: 2, TMs: 20}) // merges before
	put(Key{Vehicle: 5, TMs: 20}) // interleaves
	put(Key{Vehicle: 9, TMs: 1})  // fast-path append
	if m.len() != 5 {
		t.Fatalf("len = %d", m.len())
	}
	// Scan reads the memtable through its merge cursor.
	scan := func(lo, hi Key) (got []Key) {
		for c := newMemCursor(m, lo, hi); !c.done; c.advanceMem() {
			if want := fmt.Sprintf("p%d-%d", c.key.Vehicle, c.key.TMs); string(c.val) != want {
				t.Fatalf("cursor at %v holds %q, want %q", c.key, c.val, want)
			}
			got = append(got, c.key)
		}
		return got
	}
	got := scan(Key{}, Key{Vehicle: 1 << 31})
	if len(got) != 5 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Less(got[j]) }) {
		t.Fatalf("scan out of order: %v", got)
	}
	if p, ok := m.get(Key{Vehicle: 5, TMs: 20}); !ok || string(p) != "p5-20" {
		t.Fatalf("get = %q, %v", p, ok)
	}
	if _, ok := m.get(Key{Vehicle: 5, TMs: 21}); ok {
		t.Fatal("phantom get")
	}
	// Bounded scan.
	if got = scan(Key{Vehicle: 5}, Key{Vehicle: 5, TMs: 20}); len(got) != 2 {
		t.Fatalf("bounded scan hit %d, want 2", len(got))
	}
}

// TestWALFramingAndTornTail: intact frames replay; a torn tail, a bad crc
// on the last frame included, stops the scan without error; a bad crc on a
// frame with bytes after it is an error naming the file and the offset.
func TestWALFramingAndTornTail(t *testing.T) {
	dir := t.TempDir()
	var w walWriter
	if err := w.open(dir); err != nil {
		t.Fatal(err)
	}
	b1 := appendBatchBody(nil, []Event{{Key: Key{Vehicle: 1, TMs: 5}, Payload: []byte("a")}})
	b2 := appendBatchBody(nil, []Event{{Key: Key{Vehicle: 2, TMs: 6}, Payload: []byte("bb")}})
	if err := w.appendBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch(b2); err != nil {
		t.Fatal(err)
	}
	w.close()

	batches, _, torn, err := readWAL(dir)
	if err != nil || torn || len(batches) != 2 {
		t.Fatalf("read: %d batches torn=%v err=%v", len(batches), torn, err)
	}
	ev, err := decodeBatchBody(batches[1])
	if err != nil || len(ev) != 1 || string(ev[0].Payload) != "bb" {
		t.Fatalf("decode: %v %v", ev, err)
	}

	// A bad crc on the last frame is a torn tail: the frame reaches the end
	// of the file.
	path := filepath.Join(dir, walName)
	intact, _ := os.ReadFile(path)
	raw := bytes.Clone(intact)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	batches, _, torn, err = readWAL(dir)
	if err != nil || !torn || len(batches) != 1 {
		t.Fatalf("bad crc on the last frame: %d batches torn=%v err=%v", len(batches), torn, err)
	}

	// Torn tail: append half a frame.
	os.WriteFile(path, append(bytes.Clone(intact), 9, 0, 0, 0, 1, 2), 0o644)
	batches, _, torn, err = readWAL(dir)
	if err != nil || !torn || len(batches) != 2 {
		t.Fatalf("torn read: %d batches torn=%v err=%v", len(batches), torn, err)
	}

	// Corrupt a byte inside the first frame's body: crc catches it, and with
	// frames after it that is damage, not a crash, so the read fails.
	raw, _ = os.ReadFile(path)
	raw[10] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	batches, _, torn, err = readWAL(dir)
	want := fmt.Sprintf("telemetry: %s: offset 0: %v", path, errWALCorrupt)
	if err == nil || err.Error() != want || batches != nil || torn {
		t.Fatalf("corrupt read: %d batches torn=%v err=%v, want %q", len(batches), torn, err, want)
	}
}

// TestOpenRefusesMidLogCorruption: Open over a wal.log whose first frame is
// corrupt, with frames after it, fails with readWAL's error and changes no
// file of the store: not the runs, the MANIFEST, wal.prev or wal.log.
func TestOpenRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 8 << 10}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(10, 20)
	ingestInBatches(t, s, events, 50)
	ingestInBatches(t, s, events[:10], 5) // two batches only the WAL holds
	s.crash()
	path := filepath.Join(dir, walName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2*8 {
		t.Fatalf("wal.log holds %d bytes, want two frames", len(raw))
	}
	os.WriteFile(filepath.Join(dir, walPrevName), raw, 0o644)
	raw[8] ^= 0x01
	os.WriteFile(path, raw, 0o644)
	before := dirFingerprint(t, dir)
	if len(before) < 4 {
		t.Fatalf("store holds %d files, want runs, MANIFEST and both logs", len(before))
	}
	re, err := Open(dir, opts)
	if err == nil {
		re.Close()
		t.Fatal("Open replayed past a corrupt frame")
	}
	if !errors.Is(err, errWALCorrupt) || !strings.Contains(err.Error(), path+": offset 0:") {
		t.Fatalf("Open: %v, want %v at %s offset 0", err, errWALCorrupt, path)
	}
	if after := dirFingerprint(t, dir); !maps.Equal(after, before) {
		t.Fatal("a failed Open changed the store's files")
	}
}

// TestWALBatchCountBoundedByBody: a batch count read from disk that the
// body cannot hold is an error, not an allocation sized by it. A frame
// whose CRC passes but whose count is 2^62 must fail Open, not panic it.
func TestWALBatchCountBoundedByBody(t *testing.T) {
	for _, count := range []uint64{1 << 62, 2} {
		body := binary.AppendUvarint(nil, count)
		body = appendKey(body, Key{Vehicle: 1})
		body = append(body, 0) // one empty payload: room for one event only
		if _, err := decodeBatchBody(body); err == nil {
			t.Fatalf("count %d over a one-event body decoded", count)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), appendFrame(nil, body), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, Options{}); err == nil {
			s.Close()
			t.Fatalf("count %d: Open replayed a corrupt batch", count)
		}
	}
}

// FuzzWALBatch holds the WAL framing and batch codec to these rules: no
// input panics walFrame, walBatches or decodeBatchBody; a batch body
// decodes to the events it was encoded from; and a log of three frames with
// one byte flipped reads as a prefix of the batches written, never as a
// batch that was not: with torn set when the byte is in the last frame's
// crc or body, and as an error when it is in an earlier frame's. A flipped
// length field, which the crc does not cover, reads either way.
func FuzzWALBatch(f *testing.F) {
	one := appendBatchBody(nil, []Event{{Key: Key{Vehicle: 1, TMs: 5}, Payload: []byte("a")}})
	f.Add([]byte{}, uint(0), byte(1))
	f.Add(one, uint(9), byte(0x80))
	f.Add(appendFrame(nil, one), uint(0), byte(0xff))
	f.Add(binary.AppendUvarint(nil, 1<<62), uint(3), byte(0x01))
	f.Add(bytes.Repeat([]byte{0x5a}, 3*(KeySize+8)), uint(40), byte(0x10))
	f.Fuzz(func(t *testing.T, data []byte, flip uint, mask byte) {
		walFrame(data)
		walBatches(nil, walName, data)
		decodeBatchBody(data)

		// data cut into events: a key's worth of bytes, then a byte whose
		// low five bits size the payload that follows.
		var evs []Event
		for rest := data; len(rest) > KeySize; {
			k, n := decodeKey(rest), int(rest[KeySize]&31)
			rest = rest[KeySize+1:]
			n = min(n, len(rest))
			evs = append(evs, Event{Key: k, Payload: rest[:n]})
			rest = rest[n:]
		}
		body := appendBatchBody(nil, evs)
		got, err := decodeBatchBody(body)
		if err != nil || len(got) != len(evs) {
			t.Fatalf("%d events decoded to %d: %v", len(evs), len(got), err)
		}
		for i := range evs {
			if got[i].Key != evs[i].Key || !bytes.Equal(got[i].Payload, evs[i].Payload) {
				t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
			}
		}

		// A log of three frames, every event and then the first third and
		// the rest (an empty set is a zero-count batch), one byte flipped.
		h := len(evs) / 3
		bodies := [][]byte{body, appendBatchBody(nil, evs[:h]), appendBatchBody(nil, evs[h:])}
		var log []byte
		var starts []int
		for _, b := range bodies {
			starts = append(starts, len(log))
			log = appendFrame(log, b)
		}
		i := int(flip % uint(len(log)))
		log[i] ^= mask
		read, torn, err := walBatches(nil, walName, log)
		for k, b := range read {
			if k >= len(bodies) || !bytes.Equal(b, bodies[k]) {
				t.Fatalf("byte %d flipped by %#x: batch %d read as one that was not written", i, mask, k)
			}
		}
		frame := len(starts) - 1
		for starts[frame] > i {
			frame--
		}
		last := len(bodies) - 1
		switch {
		case mask == 0:
			if err != nil || torn || len(read) != len(bodies) {
				t.Fatalf("intact log: %d of %d batches, torn %v, err %v", len(read), len(bodies), torn, err)
			}
		case i-starts[frame] < 4: // a length field
			if err == nil && (!torn || len(read) != frame) {
				t.Fatalf("frame %d's length flipped by %#x: %d batches, torn %v", frame, mask, len(read), torn)
			}
		case frame == last:
			if err != nil || !torn || len(read) != last {
				t.Fatalf("byte %d of the last frame flipped by %#x: %d batches, torn %v, err %v", i-starts[frame], mask, len(read), torn, err)
			}
		default:
			if !errors.Is(err, errWALCorrupt) {
				t.Fatalf("byte %d of frame %d flipped by %#x: %d batches, torn %v, err %v; want %v", i-starts[frame], frame, mask, len(read), torn, err, errWALCorrupt)
			}
		}
	})
}

// makeEvents builds a deterministic synthetic fleet workload: V vehicles,
// E epochs, an epoch snapshot per vehicle plus sparse sparse events.
func makeEvents(vehicles, epochs int) []Event {
	var out []Event
	for e := 1; e <= epochs; e++ {
		tMs := uint64(e * 1000)
		for v := 0; v < vehicles; v++ {
			payload := fmt.Sprintf(`{"soc":%d.%02d,"odo":%d}`, v%2, (v*7+e)%100, v*e)
			out = append(out, Event{Key: Key{Vehicle: uint32(v), TMs: tMs, Kind: KindEpoch}, Payload: []byte(payload)})
			if (v+e)%13 == 0 {
				out = append(out, Event{Key: Key{Vehicle: uint32(v), TMs: tMs, Kind: KindReactiveBrake}, Payload: []byte(`{"d":1.5}`)})
			}
			if (v+e)%29 == 0 {
				out = append(out, Event{Key: Key{Vehicle: uint32(v), TMs: tMs, Kind: KindCollision}, Payload: []byte(`{"x":1}`)})
			}
		}
	}
	return out
}

// ingestInBatches pushes events through the store epoch-batch-wise.
func ingestInBatches(t testing.TB, s *Store, events []Event, batch int) {
	t.Helper()
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		// Copy: Ingest mutates Seq in place and callers reuse buffers.
		b := make([]Event, end-off)
		copy(b, events[off:end])
		if err := s.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
}

// collectScan snapshots a query result (copying payloads).
func collectScan(t *testing.T, s *Store, q Query) []Event {
	t.Helper()
	var out []Event
	err := s.Scan(q, func(e Event) bool {
		out = append(out, Event{Key: e.Key, Payload: append([]byte(nil), e.Payload...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreEndToEnd: ingest a workload big enough to flush and compact,
// then read every event back in order via Scan and spot-check Get.
func TestStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 8 << 10}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(40, 60)
	ingestInBatches(t, s, events, 200)

	st := s.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("want flushes and compactions, got %+v", st)
	}
	if st.WriteAmplification() <= 1 {
		t.Fatalf("write amplification %.2f must exceed 1 (WAL + runs)", st.WriteAmplification())
	}

	got := collectScan(t, s, Query{})
	if len(got) != len(events) {
		t.Fatalf("scan returned %d events, want %d", len(got), len(events))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Key.Less(got[i].Key) {
			t.Fatalf("scan out of order at %d", i)
		}
	}
	// Every original event present with its payload.
	want := make(map[Key]string, len(events))
	for i, e := range events {
		k := e.Key
		k.Seq = uint32(i) // Ingest assigns global submission order
		want[k] = string(e.Payload)
	}
	for _, e := range got {
		if want[e.Key] != string(e.Payload) {
			t.Fatalf("payload mismatch at %v: %q vs %q", e.Key, e.Payload, want[e.Key])
		}
		delete(want, e.Key)
	}
	if len(want) != 0 {
		t.Fatalf("%d events missing from scan", len(want))
	}

	// Point reads: a present key and an absent one (bloom should skip).
	pk := got[len(got)/2].Key
	if p, ok, err := s.Get(pk); err != nil || !ok || string(p) != string(got[len(got)/2].Payload) {
		t.Fatalf("get(%v) = %q %v %v", pk, p, ok, err)
	}
	before := s.Stats().BloomSkips
	if _, ok, _ := s.Get(Key{Vehicle: 9999, TMs: 1}); ok {
		t.Fatal("phantom key")
	}
	if s.Stats().BloomSkips == before && len(s.runs) > 0 {
		t.Log("note: absent-key probe did not exercise a bloom skip (in-range miss)")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same contents.
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got2 := collectScan(t, s2, Query{})
	if len(got2) != len(got) {
		t.Fatalf("reopen scan %d events, want %d", len(got2), len(got))
	}
}

// TestRangeQueries: vehicle/time windows and kind filters, Scan and
// ScanByKind agree on the result set.
func TestRangeQueries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events := makeEvents(50, 40)
	ingestInBatches(t, s, events, 500)

	q := Query{VehicleMin: 10, VehicleMax: 20, TMinMs: 5000, TMaxMs: 20000}
	prim := collectScan(t, s, q)
	if len(prim) == 0 {
		t.Fatal("empty window")
	}
	for _, e := range prim {
		if e.Key.Vehicle < 10 || e.Key.Vehicle > 20 || e.Key.TMs < 5000 || e.Key.TMs > 20000 {
			t.Fatalf("event outside window: %v", e.Key)
		}
	}

	// Kind-filtered, via Scan and via ScanByKind: same set, the second in
	// time-major order.
	qk := q
	qk.Kinds = []Kind{KindReactiveBrake}
	primK := collectScan(t, s, qk)
	var idxK []Event
	err = s.ScanByKind(qk, func(e Event) bool {
		idxK = append(idxK, Event{Key: e.Key, Payload: append([]byte(nil), e.Payload...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idxK) != len(primK) {
		t.Fatalf("index query %d events, primary %d", len(idxK), len(primK))
	}
	inPrim := make(map[Key]bool)
	for _, e := range primK {
		if e.Key.Kind != KindReactiveBrake {
			t.Fatalf("kind filter leaked %v", e.Key)
		}
		inPrim[e.Key] = true
	}
	for i, e := range idxK {
		if !inPrim[e.Key] {
			t.Fatalf("index-only event %v", e.Key)
		}
		if i > 0 && idxK[i-1].Key.TMs > e.Key.TMs {
			t.Fatal("index scan not time-major")
		}
	}
	n, err := s.Count(qk)
	if err != nil || int(n) != len(primK) {
		t.Fatalf("count = %d want %d (%v)", n, len(primK), err)
	}
}

// dirFingerprint hashes every store file's bytes (manifest, runs, wal).
func dirFingerprint(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = fmt.Sprintf("%d:%x", len(b), b)
	}
	return out
}

// TestCrashRecoveryReplaysToIdenticalStore: a store killed mid-stream
// (open WAL tail, unflushed memtable) must reopen to the same contents,
// and after Close its on-disk state must match a never-crashed twin. So
// must a store killed at any step of any writer job (jobCrashStates).
func TestCrashRecoveryReplaysToIdenticalStore(t *testing.T) {
	events := makeEvents(25, 40)
	opts := Options{FlushBytes: 8 << 10}

	cleanDir := t.TempDir()
	clean, err := Open(cleanDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, clean, events, 120)
	cleanRows := collectScan(t, clean, Query{})
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	crashDir := t.TempDir()
	victim, err := Open(crashDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, victim, events, 120)
	if victim.mem.len() == 0 {
		t.Fatal("test wants unflushed events at crash time; tune batch size")
	}
	victim.crash() // no flush, WAL tail left behind

	recovered, err := Open(crashDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.mem.len() == 0 {
		t.Fatal("no WAL replay happened")
	}
	recRows := collectScan(t, recovered, Query{})
	if len(recRows) != len(cleanRows) {
		t.Fatalf("recovered %d events, clean %d", len(recRows), len(cleanRows))
	}
	for i := range recRows {
		if recRows[i].Key != cleanRows[i].Key || !bytes.Equal(recRows[i].Payload, cleanRows[i].Payload) {
			t.Fatalf("row %d differs after recovery", i)
		}
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close, both directories are byte-identical.
	checkTwin(t, "crash mid-stream", dirFingerprint(t, cleanDir), dirFingerprint(t, crashDir))

	states := jobCrashStates(t, events, opts, 120, func(int) bool { return true })
	if len(states) < 3*6 {
		t.Fatalf("%d crash points; want every step of several jobs", len(states))
	}
	checkCrashStates(t, states, events, opts, 120, dirFingerprint(t, cleanDir))
}

// checkTwin fails unless a store's files are the never-crashed twin's.
func checkTwin(t *testing.T, what string, twin, got map[string]string) {
	t.Helper()
	if len(got) != len(twin) {
		t.Errorf("%s: %d files, the never-crashed twin %d", what, len(got), len(twin))
	}
	for name, fp := range twin {
		if got[name] != fp {
			t.Errorf("%s: %s differs from the never-crashed twin's", what, name)
		}
	}
}

// crashState is the directory a crash at one step of a writer job leaves,
// and the number of events ingested by then.
type crashState struct {
	step   string
	job    int
	files  map[string][]byte
	events int
}

// readFiles returns every file in dir by name.
func readFiles(dir string) (map[string][]byte, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		out[de.Name()] = b
	}
	return out, nil
}

// jobCrashStates ingests events into a fresh store in batches, joining each
// writer job right after the batch that starts it, and lists every step of
// every job (writer.crashPoint). For the jobs snap picks it also takes the
// directory at each step, and the one a crash leaves between the WAL rename
// and the new log's creation: the run-written state without the new log
// and the run.
func jobCrashStates(t *testing.T, events []Event, opts Options, batch int, snap func(job int) bool) []crashState {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var states []crashState
	fed, jobs := 0, 0
	s.w.crashPoint = func(step string) {
		if step == "run created" { // a job's first step
			jobs++
		}
		c := crashState{step: step, job: jobs, events: fed}
		if snap(jobs) {
			if c.files, err = readFiles(s.dir); err != nil {
				t.Errorf("job %d, %s: %v", jobs, step, err)
				return
			}
		}
		if step == "run written" {
			renamed := c
			renamed.step, renamed.files = "WAL renamed", maps.Clone(c.files)
			delete(renamed.files, walName)
			for _, name := range unnamedRuns(c.files) {
				delete(renamed.files, name)
			}
			states = append(states, renamed)
		}
		states = append(states, c)
	}
	for fed < len(events) {
		next := events[fed:min(fed+batch, len(events))]
		fed += len(next) // before the job that reads it starts
		ingestInBatches(t, s, next, batch)
		if err := s.join(); err != nil {
			t.Fatal(err)
		}
	}
	s.crash()
	return states
}

// unnamedRuns lists the run files of a directory's files that its MANIFEST
// does not name.
func unnamedRuns(files map[string][]byte) []string {
	var out []string
	for name := range files {
		id, isRun := strings.CutPrefix(strings.TrimSuffix(name, ".sst"), "run-")
		if isRun && !strings.Contains(string(files[manifestName]), "run "+id+" ") {
			out = append(out, name)
		}
	}
	return out
}

// checkCrashStates opens each crash state taken, wants every event ingested by
// then and no run file the MANIFEST does not name, ingests the rest and
// closes, and wants the never-crashed twin's files.
func checkCrashStates(t *testing.T, states []crashState, events []Event, opts Options, batch int, twin map[string]string) {
	t.Helper()
	for _, c := range states {
		if c.files == nil {
			continue
		}
		what := fmt.Sprintf("crash after job %d's %s", c.job, c.step)
		dir := t.TempDir()
		for name, b := range c.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n, err := s.Count(Query{}); err != nil || n != int64(c.events) {
			t.Errorf("%s: %d events, ingested %d: %v", what, n, c.events, err)
		}
		if name := unnamedRun(t, s); name != "" {
			t.Errorf("%s: %s is on disk but not in the MANIFEST", what, name)
		}
		ingestInBatches(t, s, events[c.events:], batch)
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", what, err)
		}
		checkTwin(t, what, twin, dirFingerprint(t, dir))
	}
}

// unnamedRun returns a run file in s's directory that its MANIFEST does not
// name, or "".
func unnamedRun(t *testing.T, s *Store) string {
	t.Helper()
	files, err := readFiles(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := unnamedRuns(files); len(names) > 0 {
		return names[0]
	}
	return ""
}

// TestCrashBeforeWALResetReplaysNoFlushedBatch: a crash after a job renamed
// the MANIFEST but before it removed wal.prev leaves a log whose every batch
// the new run holds. Open replays none of them twice, and a later crash's
// unflushed batches replay in full, also once Seq's 32 bits wrap: the
// counts are right, and after Close the directory matches a never-crashed
// twin's.
func TestCrashBeforeWALResetReplaysNoFlushedBatch(t *testing.T) {
	events := makeEvents(10, 10)
	opts := Options{FlushBytes: 1 << 20}
	for _, seq := range []uint64{0, 1<<32 - 40} {
		twinDir, dir := t.TempDir(), t.TempDir()
		twin, err := Open(twinDir, opts)
		if err != nil {
			t.Fatal(err)
		}
		twin.seq = seq
		ingestInBatches(t, twin, events[:60], 30)
		if err := twin.Flush(); err != nil {
			t.Fatal(err)
		}
		ingestInBatches(t, twin, events[60:], 30)
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.seq = seq
		ingestInBatches(t, s, events[:60], 30)
		wal, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil || len(wal) == 0 {
			t.Fatalf("want a WAL holding the batches before the flush: %d bytes, %v", len(wal), err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.crash()
		if err := os.WriteFile(filepath.Join(dir, walPrevName), wal, 0o644); err != nil { // never removed
			t.Fatal(err)
		}
		for _, want := range []int{60, len(events)} {
			if s, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			if n, err := s.Count(Query{}); err != nil || n != int64(want) {
				t.Fatalf("seq %d: reopened store counts %d events, ingested %d: %v", seq, n, want, err)
			}
			if want == 60 {
				ingestInBatches(t, s, events[60:], 30)
				s.crash() // those batches only in the WAL
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		checkTwin(t, fmt.Sprintf("seq %d", seq), dirFingerprint(t, twinDir), dirFingerprint(t, dir))
	}
}

// TestCompactionCrashWindows: a job creates and writes its run and the
// merged runs of the compactions it triggers, renames the MANIFEST, then removes wal.prev
// and the merge inputs. The directory a crash leaves after each of those
// steps of the first job that merges twice (a tier-0 merge whose run fills
// tier 1) opens with every event, with no run file the MANIFEST does not
// name, and closes to the never-crashed twin's. The payloads are random, so
// runs are as large as their data and tier 1 fills in a megabyte.
func TestCompactionCrashWindows(t *testing.T) {
	opts := Options{FlushBytes: 64 << 10}
	events := modelEvents(rand.New(rand.NewSource(49)), 30000)
	const batch = 400
	twin, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, twin, events, batch)
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	merges := map[int]int{}
	for _, c := range jobCrashStates(t, events, opts, batch, func(int) bool { return false }) {
		if c.step == "merged run written" {
			merges[c.job]++
		}
	}
	cascade := 0
	for job, n := range merges {
		if n >= 2 && (cascade == 0 || job < cascade) {
			cascade = job
		}
	}
	if cascade == 0 {
		t.Fatalf("no job merged twice (merges per job: %v)", merges)
	}
	states := jobCrashStates(t, events, opts, batch, func(job int) bool { return job == cascade })
	steps := map[string]int{}
	for _, c := range states {
		if c.job == cascade {
			steps[c.step]++
		}
	}
	want := map[string]int{"WAL renamed": 1, "run created": 1, "run written": 1, "merged run created": 2, "merged run written": 2,
		"MANIFEST renamed": 1, "wal.prev removed": 1, "victim removed": 2 * tierFanout}
	if !maps.Equal(steps, want) {
		t.Errorf("job %d's crash points %v, want %v", cascade, steps, want)
	}
	checkCrashStates(t, states, events, opts, batch, dirFingerprint(t, twin.dir))
}

// TestTornWALTailRecovered: garbage appended to the WAL (torn last write)
// must not block recovery of the intact prefix, and the batches ingested
// after that recovery must not land behind the garbage, where the next
// replay would stop short of them.
func TestTornWALTailRecovered(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 1 << 20} // no flush: all in WAL
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(5, 8)
	half := len(events) / 2
	ingestInBatches(t, s, events[:half], 7)
	s.crash()
	// Tear the tail.
	f, _ := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{42, 0, 0, 0, 9, 9, 9})
	f.Close()
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, re, Query{})
	if len(got) != half {
		t.Fatalf("recovered %d events, want %d", len(got), half)
	}
	ingestInBatches(t, re, events[half:], 7)
	re.crash()
	re, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := re.Count(Query{}); err != nil || n != int64(len(events)) {
		t.Fatalf("second recovery counts %d events, want %d: %v", n, len(events), err)
	}
}

// TestOpenReplacesTheWALItShortens: an Open whose replay flushes (here, a
// reopen with a smaller FlushBytes) keeps the unflushed tail of the log in
// a new file renamed over wal.log, never by truncating the one it read, so
// a crash inside Open cannot lose the tail; a second crash replays it.
func TestOpenReplacesTheWALItShortens(t *testing.T) {
	dir := t.TempDir()
	events := makeEvents(10, 20)
	s, err := Open(dir, Options{FlushBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, s, events, 30)
	s.crash()
	walPath := filepath.Join(dir, walName)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FlushBytes: 2 << 10}
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Flushes == 0 || s.mem.len() == 0 || after.Size() == 0 || after.Size() >= before.Size() {
		t.Fatalf("want a replay that flushes and keeps a tail: %d flushes, %d events left, log %d -> %d bytes",
			s.Stats().Flushes, s.mem.len(), before.Size(), after.Size())
	}
	if os.SameFile(before, after) {
		t.Error("Open truncated the log it replayed in place")
	}
	s.crash()
	for _, name := range []string{walPrevName, walTmpName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s left behind: %v", name, err)
		}
	}
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, err := s.Count(Query{}); err != nil || n != int64(len(events)) {
		t.Fatalf("second recovery counts %d events, want %d: %v", n, len(events), err)
	}
}

// TestIngestMetricsAndJSONLRendering: a metrics snapshot lands on the fleet
// pseudo-vehicle with its payload verbatim, and the JSONL rendering embeds
// raw payload JSON and names the fleet row.
func TestIngestMetricsAndJSONLRendering(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := NewIngestor(s)
	in.Add(7, 1500*time.Millisecond, KindBlackbox, []byte(`{"seq":1,"trigger":"collision","t_ms":1500,"records":[]}`))
	in.IngestMetrics(3*time.Second, []byte(`[{"name":"x","value":1}]`))
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}

	got := collectScan(t, s, Query{})
	if len(got) != 2 {
		t.Fatalf("got %d events", len(got))
	}
	if got[0].Key != (Key{Vehicle: 7, TMs: 1500, Kind: KindBlackbox, Seq: 0}) {
		t.Fatalf("blackbox key %v", got[0].Key)
	}
	if got[1].Key != (Key{Vehicle: FleetVehicle, TMs: 3000, Kind: KindMetric, Seq: 1}) {
		t.Fatalf("metric key %v", got[1].Key)
	}
	if !strings.Contains(string(got[0].Payload), `"trigger":"collision"`) {
		t.Fatalf("blackbox payload %q", got[0].Payload)
	}
	var buf bytes.Buffer
	if _, err := s.WriteJSONL(&buf, Query{Kinds: []Kind{KindMetric}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"vehicle":"fleet"`) || !strings.Contains(buf.String(), `[{"name":"x","value":1}]`) {
		t.Fatalf("jsonl row %q", buf.String())
	}
}

// TestRunFileCorruptionDetected: a flipped byte in a data block fails the
// block crc on read; a flipped index byte fails open.
func TestRunFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 4 << 10, NoCompact: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, s, makeEvents(10, 20), 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var runFile string
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".sst") {
			runFile = filepath.Join(dir, de.Name())
			break
		}
	}
	if runFile == "" {
		t.Fatal("no run file")
	}
	raw, _ := os.ReadFile(runFile)

	// Flip a data byte (inside the first block, after the magic).
	mut := append([]byte(nil), raw...)
	mut[len(runMagic)+3] ^= 0x40
	os.WriteFile(runFile, mut, 0o644)
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err) // index/footer intact: open succeeds
	}
	err = s2.Scan(Query{}, func(Event) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("scan over corrupt block: %v", err)
	}
	s2.crash()

	// Flip an index byte: open fails on the metadata crc.
	mut = append([]byte(nil), raw...)
	mut[len(mut)-footerSize-3] ^= 0x01
	os.WriteFile(runFile, mut, 0o644)
	if _, err := Open(dir, opts); err == nil {
		t.Fatal("open accepted corrupt index")
	}

	// Every footer field, overwritten with values that used to wrap the
	// metadata length or slice out of range: open errors, never panics.
	foot := len(raw) - footerSize
	fields := []struct {
		name     string
		off, len int
	}{
		{"indexOff", 0, 8}, {"blockCount", 8, 4}, {"bloomOff", 12, 8}, {"bloomLen", 20, 4},
		{"entryCount", 24, 8}, {"minKey", 32, KeySize}, {"maxKey", 32 + KeySize, KeySize},
		{"metaCRC", 32 + 2*KeySize, 4}, {"magic", 32 + 2*KeySize + 4, 8},
	}
	indexOff := binary.LittleEndian.Uint64(raw[foot:])
	bloomOff := binary.LittleEndian.Uint64(raw[foot+12:])
	values := []uint64{0, 1, uint64(len(runMagic)) - 1, indexOff - 1, indexOff + 1, bloomOff + 1,
		uint64(foot), uint64(foot) + 1, uint64(len(raw)), 1 << 31, 1<<32 - 1, 1 << 63, 1<<64 - 1}
	for _, fld := range fields {
		for _, v := range values {
			mut = append([]byte(nil), raw...)
			var le [KeySize]byte
			binary.LittleEndian.PutUint64(le[:], v)
			binary.LittleEndian.PutUint64(le[8:], v)
			if bytes.Equal(mut[foot+fld.off:][:fld.len], le[:fld.len]) {
				continue // the field's true value
			}
			copy(mut[foot+fld.off:][:fld.len], le[:])
			os.WriteFile(runFile, mut, 0o644)
			if st, err := Open(dir, opts); err == nil {
				st.crash()
				t.Fatalf("open accepted footer %s = %#x", fld.name, v)
			}
		}
	}
	os.WriteFile(runFile, raw, 0o644)
}

// TestMalformedManifestRejected: a MANIFEST damaged in any line makes Open
// return an error; it never panics and never opens a partial store.
func TestMalformedManifestRejected(t *testing.T) {
	path, _, _ := firstRun(t)
	dir := filepath.Dir(path)
	good, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(good), "\n") // header, next-run, seq, run, end, ""
	if len(lines) != 6 || !strings.HasPrefix(lines[3], "run ") {
		t.Fatalf("unexpected manifest layout:\n%s", good)
	}
	runFields := strings.Fields(lines[3])
	withRun := func(f []string) string {
		return lines[0] + lines[1] + lines[2] + strings.Join(f, " ") + "\n" + lines[4]
	}
	badKey := append([]string(nil), runFields...)
	badKey[9] = "zz" + badKey[9][2:]
	for _, c := range []struct{ name, manifest string }{
		{"short next-run", lines[0] + "next-run\n" + lines[2] + lines[3] + lines[4]},
		{"short seq", lines[0] + lines[1] + "seq\n" + lines[3] + lines[4]},
		{"next-run cut mid-line", lines[0] + "next-run"},
		{"13-field run", withRun(runFields[:13])},
		{"bad hex key", withRun(badKey)},
		{"missing end", lines[0] + lines[1] + lines[2] + lines[3]},
	} {
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(c.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(dir, Options{}); err == nil {
			st.crash()
			t.Errorf("%s: Open accepted the manifest:\n%s", c.name, c.manifest)
		}
	}
}

// TestFormatV1Refused: a store the previous format wrote (deflate blocks,
// FNV bloom) is refused by Open with an error that names the version, by its
// MANIFEST header first and by a run file's own header if that is all that
// is left of v1; a header that is neither version is refused too. The v1
// bytes are built by hand: nothing of that format's code is kept.
func TestFormatV1Refused(t *testing.T) {
	path, raw, _ := firstRun(t)
	dir := filepath.Dir(path)
	manifestPath := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(what, wantInErr string) {
		t.Helper()
		st, err := Open(dir, Options{})
		if err == nil {
			st.crash()
			t.Fatalf("%s: Open accepted the store", what)
		}
		if !strings.Contains(err.Error(), wantInErr) {
			t.Fatalf("%s: Open failed with %q, want an error naming %q", what, err, wantInErr)
		}
	}
	v1 := bytes.Replace(good, []byte("manifest v2\n"), []byte("manifest v1\n"), 1)
	if bytes.Equal(v1, good) {
		t.Fatalf("no v2 header to rewrite in:\n%s", good)
	}
	os.WriteFile(manifestPath, v1, 0o644)
	reopen("v1 MANIFEST", "format v1")

	os.WriteFile(manifestPath, good, 0o644)
	os.WriteFile(path, append([]byte("SOVTRUN1"), raw[8:]...), 0o644)
	reopen("v1 run header", "format v1")
	os.WriteFile(path, append([]byte("SOVTRUN3"), raw[8:]...), 0o644)
	reopen("unknown run header", "header magic")

	os.WriteFile(path, raw, 0o644)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("the intact store: %v", err)
	}
	st.crash()
}

// firstRun flushes a few blocks into a one-run store and returns the run's
// path, bytes and manifest entry.
func firstRun(t testing.TB) (string, []byte, runMeta) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushBytes: 1 << 20, NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	ingestInBatches(t, s, makeEvents(10, 60), 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != 1 || len(s.runs[0].index) < 3 {
		t.Fatalf("want one run of several blocks, got %d runs", len(s.runs))
	}
	path := runPath(dir, s.runs[0].meta.id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw, s.runs[0].meta
}

// TestBlockLengthAndCountChecked: a block whose index entry states another
// raw length or entry count than the block holds is an error on read, and
// a compressed block is never decoded past its stated length. The index
// crc is recomputed, so only these checks stand in the way.
func TestBlockLengthAndCountChecked(t *testing.T) {
	path, raw, meta := firstRun(t)
	foot := len(raw) - footerSize
	indexOff := int(binary.LittleEndian.Uint64(raw[foot:]))
	const rawLenAt, countAt = KeySize + 13, KeySize + 17

	walk := func(r *run) (entries int, err error) {
		var st Stats
		var c blockCursor
		c.seek(r, &st, 0, len(r.index)-1)
		for {
			ok, err := c.next()
			if err != nil || !ok {
				return entries, err
			}
			entries++
		}
	}
	intact, err := openRun(path, meta, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := walk(intact); err != nil || uint64(n) != meta.entries {
		t.Fatalf("intact run walked %d of %d entries: %v", n, meta.entries, err)
	}
	var compressed, plain int
	for _, bm := range intact.index {
		if bm.compressed {
			compressed++
		} else {
			plain++
		}
	}
	intact.close()
	if compressed == 0 {
		t.Fatal("test wants a compressed block")
	}

	cases := []struct {
		name  string
		block int
		at    int
		delta int32
		want  error
	}{
		{"rawLen short", 1, rawLenAt, -1, nil}, // the decoder's bound trips before errBlockLen can
		{"rawLen long", 1, rawLenAt, +1, errBlockLen},
		{"rawLen far long", 1, rawLenAt, 1 << 30, errBlockLen},
		{"count short", 1, countAt, -1, errBlockCount},
		{"count long", 1, countAt, +1, errBlockCount},
		{"count zero", 0, countAt, 0, errBlockCount},
	}
	for _, c := range cases {
		mut := append([]byte(nil), raw...)
		field := mut[indexOff+c.block*blockMetaSize+c.at:][:4]
		v := binary.LittleEndian.Uint32(field) + uint32(c.delta)
		if c.delta == 0 {
			v = 0
		}
		binary.LittleEndian.PutUint32(field, v)
		m := meta
		m.crc = crc32.ChecksumIEEE(mut[indexOff:foot])
		binary.LittleEndian.PutUint32(mut[foot+32+2*KeySize:], m.crc)
		os.WriteFile(path, mut, 0o644)
		r, err := openRun(path, m, new([]byte))
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		n, err := walk(r)
		r.close()
		if err == nil || (c.want != nil && err != c.want) {
			t.Fatalf("%s: walked %d entries, err %v, want %v", c.name, n, err, c.want)
		}
	}
}

// FuzzRunFile holds the run file's read path to three rules: no patch of a
// run's bytes panics openRun, a cursor walking every block, or Get; the
// unpatched run yields every entry it was written with; and a patched one
// is an error, from openRun or the walk. With fix set, every block crc, the
// index crc and the MANIFEST entry's crc are recomputed over the patched
// bytes first, so the patch reaches the decoder and the entry parser, and
// only the first two rules hold.
func FuzzRunFile(f *testing.F) {
	path, valid, meta := firstRun(f)
	r0, err := openRun(path, meta, new([]byte))
	if err != nil {
		f.Fatal(err)
	}
	index := r0.index
	r0.close()
	// The run holds makeEvents' events with the Seq ingest gave them.
	events := makeEvents(10, 60)
	for i := range events {
		events[i].Key.Seq = uint32(i)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Key.Less(events[j].Key) })
	foot := len(valid) - footerSize
	indexOff := int(binary.LittleEndian.Uint64(valid[foot:]))

	f.Fuzz(func(t *testing.T, at uint, patch []byte, fix bool) {
		mut := append([]byte(nil), valid...)
		for i, b := range patch {
			mut[(at+uint(i))%uint(len(mut))] ^= b
		}
		m := meta
		if fix {
			for i, bm := range index {
				crc := crc32.ChecksumIEEE(mut[bm.off : bm.off+uint64(bm.storedLen)])
				binary.LittleEndian.PutUint32(mut[indexOff+i*blockMetaSize+KeySize+21:], crc)
			}
			m.crc = crc32.ChecksumIEEE(mut[indexOff:foot])
			binary.LittleEndian.PutUint32(mut[foot+32+2*KeySize:], m.crc)
		}
		intact := bytes.Equal(mut, valid)
		p := filepath.Join(t.TempDir(), "run.sst")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openRun(p, m, new([]byte))
		if err != nil {
			if intact {
				t.Fatalf("unpatched run: %v", err)
			}
			return
		}
		defer r.close()
		var st Stats
		var c blockCursor
		c.seek(r, &st, 0, len(r.index)-1)
		n := 0
		for ; ; n++ {
			var ok bool
			if ok, err = c.next(); !ok || err != nil {
				break
			}
			if intact && (n >= len(events) || c.key != events[n].Key || !bytes.Equal(c.val, events[n].Payload)) {
				t.Fatalf("unpatched run: entry %d is %+v %q", n, c.key, c.val)
			}
		}
		switch {
		case intact && (err != nil || n != len(events)):
			t.Fatalf("unpatched run: %d of %d entries: %v", n, len(events), err)
		case !intact && !fix && err == nil:
			t.Fatalf("%x at %d: read as a run of %d entries", patch, at, n)
		}
		for i := 0; i < len(events); i += 37 {
			k := events[i].Key
			got, ok, err := r.get(k, hashKey(k), &c, &st)
			if intact && (!ok || err != nil || !bytes.Equal(got, events[i].Payload)) {
				t.Fatalf("unpatched run: Get(%+v) = %q %v %v", k, got, ok, err)
			}
		}
	})
}

// TestFailedCompactionLeavesNoPartialRun: a writer job whose compaction
// fails (here on a block crc) returns the error at the next join, leaves no
// run file the MANIFEST does not name and writes no MANIFEST: the run it
// flushed is not committed, and its frozen memtable still answers reads
// beside the intact runs. Every later Ingest, Flush and Close returns the
// error.
func TestFailedCompactionLeavesNoPartialRun(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 4 << 10, NoCompact: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(10, 200)
	fed := 0
	for s.join() == nil && len(s.runs) < tierFanout-1 {
		ingestInBatches(t, s, events[fed:fed+50], 50)
		fed += 50
	}
	if s.mem.len() != 0 {
		// keep the run count at tierFanout-1 across Close
		t.Fatalf("test wants an empty memtable at %d runs; tune the batch size", len(s.runs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := runPath(dir, s.runs[1].meta.id)
	raw, _ := os.ReadFile(bad)
	raw[len(runMagic)+3] ^= 0x40
	os.WriteFile(bad, raw, 0o644)
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	opts.NoCompact = false
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.crash()
	var ingestErr error
	for ingestErr == nil && fed < len(events) {
		b := append([]Event(nil), events[fed:fed+50]...)
		fed += 50
		ingestErr = s.Ingest(b)
	}
	if ingestErr == nil || !strings.Contains(ingestErr.Error(), "crc") {
		t.Fatalf("compaction over a corrupt block: %v", ingestErr)
	}

	if name := unnamedRun(t, s); name != "" {
		t.Fatalf("%s is on disk but not in the MANIFEST", name)
	}
	if len(s.runs) != tierFanout-1 {
		t.Fatalf("%d runs live after the failed merge, want the %d committed before it", len(s.runs), tierFanout-1)
	}
	// events[0] went into the first (intact) run, the last batch into the
	// active memtable, and the memtable the failed job froze still answers.
	if s.frozen == nil {
		t.Fatal("the failed job's memtable was dropped")
	}
	for _, i := range []int{0, int(s.frozen.entries[0].key.Seq), fed - 1} {
		k := events[i].Key
		k.Seq = uint32(i)
		if p, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(p, events[i].Payload) {
			t.Fatalf("Get(%v) after the failed compaction = %q %v %v", k, p, ok, err)
		}
	}
	if err := s.Ingest(append([]Event(nil), events[fed:fed+1]...)); err != ingestErr {
		t.Errorf("Ingest after the failed job: %v, want %v", err, ingestErr)
	}
	if err := s.Flush(); err != ingestErr {
		t.Errorf("Flush after the failed job: %v, want %v", err, ingestErr)
	}
	if err := s.Close(); err != ingestErr {
		t.Errorf("Close after the failed job: %v, want %v", err, ingestErr)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(got, manifest) {
		t.Error("the MANIFEST changed after the failed job")
	}
}

// TestBlockPathSteadyStateAllocs: an Ingestor queues a 200-event epoch
// into the batch it has already held without allocating, the codec
// compresses and decodes a block into buffers that have held one without
// allocating, a whole 256 KB memtable flush (a run of ~60 blocks, reopened
// and recorded in the MANIFEST) allocates well under 1 MB, a warm reopen of
// a run allocates no buffer for its metadata, and a point read of a flushed
// key allocates nothing.
func TestBlockPathSteadyStateAllocs(t *testing.T) {
	epoch := makeEvents(200, 1)[:200]
	in := NewIngestor(nil)
	add := func() {
		in.events, in.arena = in.events[:0], in.arena[:0] // what Flush leaves
		for _, e := range epoch {
			in.Add(e.Key.Vehicle, time.Duration(e.Key.TMs)*time.Millisecond, e.Key.Kind, e.Payload)
		}
	}
	add() // grow the batch
	if n := testing.AllocsPerRun(20, add); n != 0 {
		t.Errorf("Ingestor.Add allocates %v times per 200-event epoch, want 0", n)
	}

	var block []byte
	for _, e := range makeEvents(1, 200) {
		block = appendKey(block, e.Key)
		block = binary.AppendUvarint(block, uint64(len(e.Payload)))
		block = append(block, e.Payload...)
		if len(block) >= blockTarget {
			break
		}
	}
	var tbl cloud.Table
	packed := cloud.AppendCompress(nil, block, &tbl)
	raw := make([]byte, 0, len(block))
	if n := testing.AllocsPerRun(200, func() {
		packed = cloud.AppendCompress(packed[:0], block, &tbl)
	}); n != 0 {
		t.Errorf("AppendCompress allocates %v times per block, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		raw, _ = cloud.AppendDecompress(raw[:0], packed, len(block))
	}); n != 0 {
		t.Errorf("AppendDecompress allocates %v times per block, want 0", n)
	}
	if !bytes.Equal(raw, block) {
		t.Fatal("round trip broke")
	}

	s, err := Open(t.TempDir(), Options{FlushBytes: 512 << 10, NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events := makeEvents(100, 80)
	var flushAlloc uint64
	for round := 0; round < 2; round++ { // the first flush grows the store's buffers
		fed := 0
		for s.mem.sizeBytes() < 256<<10 {
			ingestInBatches(t, s, events[fed:fed+100], 100)
			fed += 100
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		flushAlloc = after.TotalAlloc - before.TotalAlloc
	}
	if blocks := len(s.runs[1].index); blocks < 40 {
		t.Fatalf("flush wrote %d blocks, want the ~60 of a 256 KB memtable", blocks)
	}
	if flushAlloc >= 1<<20 {
		t.Errorf("one 256 KB flush allocated %d bytes, want < 1 MB", flushAlloc)
	}
	t.Logf("256 KB flush: %d blocks, %d bytes allocated", len(s.runs[1].index), flushAlloc)

	// A warm reopen reads the index and bloom through the store's scratch:
	// it allocates what the open run keeps (the decoded index, the bloom's
	// words) and a few small values, but no buffer the metadata's size.
	r := s.runs[1]
	metaLen := uint64(len(r.index)*blockMetaSize + 4 + 8*len(r.filter.bits))
	kept := uint64(uintptr(len(r.index))*unsafe.Sizeof(blockMeta{}) + uintptr(8*len(r.filter.bits)))
	const reopens = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reopens {
		r2, err := openRun(runPath(s.dir, r.meta.id), r.meta, &s.w.metaBuf)
		if err != nil {
			t.Fatal(err)
		}
		r2.close()
	}
	runtime.ReadMemStats(&after)
	if extra := (after.TotalAlloc-before.TotalAlloc)/reopens - kept; extra >= metaLen {
		t.Errorf("a warm reopen allocated %d bytes beyond the %d it keeps, want < the %d of the metadata", extra, kept, metaLen)
	}

	k := events[0].Key
	k.Seq = 0
	if p, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(p, events[0].Payload) {
		t.Fatalf("Get(%v) of a flushed key = %q %v %v", k, p, ok, err)
	}
	if n := testing.AllocsPerRun(200, func() { s.Get(k) }); n != 0 {
		t.Errorf("Get of a flushed key allocates %v times, want 0", n)
	}
}

// TestTierOf: size buckets quadruple.
func TestTierOf(t *testing.T) {
	cases := []struct {
		bytes int64
		tier  int
	}{
		{1, 0}, {tierBase, 0}, {tierBase*tierFanout - 1, 0},
		{tierBase * tierFanout, 1}, {tierBase * tierFanout * tierFanout, 2},
	}
	for _, c := range cases {
		if got := tierOf(c.bytes); got != c.tier {
			t.Fatalf("tierOf(%d) = %d, want %d", c.bytes, got, c.tier)
		}
	}
}

// TestCompactionReducesRunCount: with compaction on, sustained ingest
// keeps the run count far below the flush count.
func TestCompactionReducesRunCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestInBatches(t, s, makeEvents(40, 80), 150)
	st := s.Stats()
	runs, _ := s.Runs()
	if st.Flushes < 8 {
		t.Fatalf("want many flushes, got %d", st.Flushes)
	}
	if runs >= int(st.Flushes) {
		t.Fatalf("compaction did not reduce runs: %d runs after %d flushes", runs, st.Flushes)
	}
	if runs >= tierFanout*4 {
		t.Fatalf("run count %d not bounded by tiering", runs)
	}
}
