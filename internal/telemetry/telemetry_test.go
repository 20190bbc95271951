package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sov/internal/cloud"
)

// crash closes every file handle WITHOUT flushing the memtable or
// resetting the WAL — the crash-recovery tests' process-kill stand-in.
func (s *Store) crash() {
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
	m := newMemtable()
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

// TestWALFramingAndTornTail: intact frames replay; a torn tail stops the
// scan without error; mid-log corruption is detected via crc.
func TestWALFramingAndTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir)
	if err != nil {
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

	batches, torn, err := readWAL(dir)
	if err != nil || torn || len(batches) != 2 {
		t.Fatalf("read: %d batches torn=%v err=%v", len(batches), torn, err)
	}
	ev, err := decodeBatchBody(batches[1])
	if err != nil || len(ev) != 1 || string(ev[0].Payload) != "bb" {
		t.Fatalf("decode: %v %v", ev, err)
	}

	// Torn tail: append half a frame.
	path := filepath.Join(dir, walName)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{9, 0, 0, 0, 1, 2})
	f.Close()
	batches, torn, err = readWAL(dir)
	if err != nil || !torn || len(batches) != 2 {
		t.Fatalf("torn read: %d batches torn=%v err=%v", len(batches), torn, err)
	}

	// Corrupt a byte inside the first frame's body: crc catches it and the
	// scan ends there (sequential framing cannot resync).
	raw, _ := os.ReadFile(path)
	raw[10] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	batches, torn, _ = readWAL(dir)
	if !torn || len(batches) != 0 {
		t.Fatalf("corrupt read: %d batches torn=%v", len(batches), torn)
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

// FuzzWALBatch holds the WAL framing and batch codec to three rules: no
// input panics walFrame or decodeBatchBody; a batch body decodes to the
// events it was encoded from; and a framed batch with one byte flipped
// reads as a torn tail, never as a different batch.
func FuzzWALBatch(f *testing.F) {
	one := appendBatchBody(nil, []Event{{Key: Key{Vehicle: 1, TMs: 5}, Payload: []byte("a")}})
	f.Add([]byte{}, uint(0), byte(1))
	f.Add(one, uint(9), byte(0x80))
	f.Add(appendFrame(nil, one), uint(0), byte(0xff))
	f.Add(binary.AppendUvarint(nil, 1<<62), uint(3), byte(0x01))
	f.Add(bytes.Repeat([]byte{0x5a}, 3*(KeySize+8)), uint(40), byte(0x10))
	f.Fuzz(func(t *testing.T, data []byte, flip uint, mask byte) {
		walFrame(data)
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

		frame := appendFrame(nil, body)
		if mask == 0 {
			return
		}
		i := int(flip % uint(len(frame)))
		frame[i] ^= mask
		if b, _, err := walFrame(frame); err == nil {
			t.Fatalf("byte %d flipped by %#x: frame read as a %d-byte batch", i, mask, len(b))
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
func ingestInBatches(t *testing.T, s *Store, events []Event, batch int) {
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
// and after Close its on-disk state must match a never-crashed twin.
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
	cleanFP := dirFingerprint(t, cleanDir)
	recFP := dirFingerprint(t, crashDir)
	if len(cleanFP) != len(recFP) {
		t.Fatalf("file sets differ: clean %d, recovered %d", len(cleanFP), len(recFP))
	}
	for name, fp := range cleanFP {
		if recFP[name] != fp {
			t.Fatalf("file %s differs between clean close and crash recovery", name)
		}
	}
}

// TestTornWALTailRecovered: garbage appended to the WAL (torn last write)
// must not block recovery of the intact prefix.
func TestTornWALTailRecovered(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 1 << 20} // no flush: all in WAL
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(5, 4)
	ingestInBatches(t, s, events, 7)
	s.crash()
	// Tear the tail.
	f, _ := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{42, 0, 0, 0, 9, 9, 9})
	f.Close()
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := collectScan(t, re, Query{})
	if len(got) != len(events) {
		t.Fatalf("recovered %d events, want %d", len(got), len(events))
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
func firstRun(t *testing.T) (string, []byte, runMeta) {
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
	intact, err := openRun(path, meta)
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
		r, err := openRun(path, m)
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

// TestFailedCompactionLeavesNoPartialRun: a compaction that fails (here on
// a block crc) returns the error, leaves no run file the MANIFEST does not
// name, and leaves the store answering reads from its intact runs.
func TestFailedCompactionLeavesNoPartialRun(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 4 << 10, NoCompact: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(10, 200)
	fed := 0
	for len(s.runs) < tierFanout-1 {
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

	manifest, err := s.ManifestBytes()
	if err != nil {
		t.Fatal(err)
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		id, isRun := strings.CutPrefix(strings.TrimSuffix(de.Name(), ".sst"), "run-")
		if isRun && !strings.Contains(string(manifest), "run "+id+" ") {
			t.Fatalf("%s is on disk but not in the MANIFEST:\n%s", de.Name(), manifest)
		}
	}
	if len(s.runs) != tierFanout {
		t.Fatalf("%d runs live after the failed merge, want %d", len(s.runs), tierFanout)
	}
	// events[0] went into the first (intact) run, the last batch into the
	// run flushed just before the merge failed.
	for _, i := range []int{0, fed - 1} {
		k := events[i].Key
		k.Seq = uint32(i)
		if p, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(p, events[i].Payload) {
			t.Fatalf("Get(%v) after the failed compaction = %q %v %v", k, p, ok, err)
		}
	}
}

// TestBlockPathSteadyStateAllocs: the codec compresses and decodes a block
// into buffers that have held one without allocating, a whole 256 KB
// memtable flush (a run of ~60 blocks, reopened and recorded in the
// MANIFEST) allocates well under 1 MB, and a point read of a flushed key
// allocates nothing.
func TestBlockPathSteadyStateAllocs(t *testing.T) {
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

	s, err := Open(t.TempDir(), Options{FlushBytes: 1 << 30, NoCompact: true})
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
