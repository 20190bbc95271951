package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"sov/internal/parallel"
	"sov/internal/telemetry"
)

// storeLoad exercises the telemetry store alone, reads beside writes. Each
// slice fills a fresh store with epoch batches from a 500-vehicle fleet
// (one KindEpoch event per vehicle with a 40–80 B payload, plus a
// KindReactiveBrake event with probability 1/17) and interleaves point
// reads, indexed kind queries and range scans, then flushes, closes,
// reopens and counts. The data a slice writes (≈8 MB) is far larger than the
// 256 KB memtable and the store has no block cache, so nearly every Get
// decompresses a block: a compaction, compression, bloom or index change
// that helps writes and costs reads (or the reverse) shows inside one run.
//
// A fresh store per slice keeps every slice the same work however fast the
// host is; one store grown for the whole time budget would hold more data,
// and so read more slowly, the faster the code under test became.
type storeLoad struct {
	p        params
	vehicles int
	batches  int // epoch batches per slice

	dir     string
	store   *telemetry.Store
	dig     uint64
	fresh   bool // the open store has not been filled yet
	payload []byte
}

// Read mix, in batches between reads of each kind.
const (
	getEvery    = 5
	getsPerStop = 100
	kindEvery   = 20
	kindWindowS = 60
	scanEvery   = 50
	scanSpan    = 50 // vehicles per range scan
)

func newStoreLoad(p params) *storeLoad {
	return &storeLoad{p: p, vehicles: p.scaled(500, 100), batches: p.scaled(200, 50)}
}

func (l *storeLoad) name() string { return "telemetry" }

func (l *storeLoad) config() any {
	return map[string]any{
		"telemetry":             telemetry.DefaultOptions(),
		"workers":               l.p.workers,
		"vehicles":              l.vehicles,
		"batches_per_slice":     l.batches,
		"gets_per_5_batches":    getsPerStop,
		"kind_query_every":      kindEvery,
		"kind_window_s":         kindWindowS,
		"scan_every":            scanEvery,
		"scan_vehicle_span":     scanSpan,
		"fresh_store_per_slice": true,
	}
}

// generator makes a slice's events from (seed, slice) alone and keeps the
// oracle the reads are checked against.
type generator struct {
	seed     uint64
	vehicles int
	// seqBase[e] is the store sequence number of epoch e's first event.
	seqBase    []uint32
	brakesAt   []int32 // brake events in epoch e
	perVehicle []int32 // events ingested so far, by vehicle
	events     int64
	userBytes  int64
	rng        uint64 // read-side sampling stream
}

func newGenerator(seed int64, slice, vehicles int) *generator {
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(slice) + 1)
	return &generator{
		seed:       s,
		vehicles:   vehicles,
		seqBase:    []uint32{0},
		brakesAt:   []int32{0},
		perVehicle: make([]int32, vehicles),
		rng:        splitmix(s ^ 0xa5a5a5a5),
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *generator) hash(v, e int) uint64 {
	return splitmix(g.seed ^ uint64(v)<<32 ^ uint64(e))
}

// next draws from the read-side sampling stream.
func (g *generator) next() uint64 {
	g.rng = splitmix(g.rng)
	return g.rng
}

func (g *generator) brake(v, e int) bool { return g.hash(v, e)%17 == 0 }

var stateNames = [...]string{"idle", "to-pickup", "on-trip", "charging"}

// appendPayload renders the epoch snapshot of (v, e): the same JSON shape
// the fleet barrier emits, 40–80 bytes, a pure function of the seed.
func (g *generator) appendPayload(b []byte, v, e int) []byte {
	h := g.hash(v, e)
	b = append(b, `{"soc":0.`...)
	b = appendPadded(b, h%10000, 4)
	b = append(b, `,"odo_m":`...)
	b = strconv.AppendUint(b, (h>>16)%2000000, 10)
	b = append(b, `.5,"state":"`...)
	b = append(b, stateNames[(h>>40)%uint64(len(stateNames))]...)
	b = append(b, `","trips":`...)
	b = strconv.AppendUint(b, (h>>48)%500, 10)
	if h>>60 < 6 {
		b = append(b, `,"rider":`...)
		b = strconv.AppendUint(b, (h>>8)%10000000, 10)
	}
	return append(b, '}')
}

func appendPadded(b []byte, v uint64, width int) []byte {
	s := strconv.FormatUint(v, 10)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// batch appends epoch e's events to dst: every vehicle's snapshot in vehicle
// order, then the epoch's brake events. It advances the oracle.
func (g *generator) batch(dst []telemetry.Event, arena []byte, e int) ([]telemetry.Event, []byte) {
	tMs := uint64(e) * 1000
	for v := 0; v < g.vehicles; v++ {
		off := len(arena)
		arena = g.appendPayload(arena, v, e)
		dst = append(dst, telemetry.Event{
			Key:     telemetry.Key{Vehicle: uint32(v), TMs: tMs, Kind: telemetry.KindEpoch},
			Payload: arena[off:len(arena):len(arena)],
		})
		g.perVehicle[v]++
	}
	brakes := int32(0)
	for v := 0; v < g.vehicles; v++ {
		if g.brake(v, e) {
			dst = append(dst, telemetry.Event{
				Key:     telemetry.Key{Vehicle: uint32(v), TMs: tMs, Kind: telemetry.KindReactiveBrake},
				Payload: []byte(`{"n":1}`),
			})
			g.perVehicle[v]++
			brakes++
		}
	}
	g.seqBase = append(g.seqBase, uint32(g.events)+uint32(g.vehicles)+uint32(brakes))
	g.brakesAt = append(g.brakesAt, brakes)
	for _, ev := range dst[len(dst)-g.vehicles-int(brakes):] {
		g.userBytes += int64(telemetry.KeySize + len(ev.Payload))
	}
	g.events += int64(g.vehicles) + int64(brakes)
	return dst, arena
}

// snapshotKey is the stored key of vehicle v's epoch-e snapshot: snapshots
// lead each batch in vehicle order, so the store numbered it seqBase+v.
func (g *generator) snapshotKey(v, e int) telemetry.Key {
	return telemetry.Key{Vehicle: uint32(v), TMs: uint64(e) * 1000, Kind: telemetry.KindEpoch, Seq: g.seqBase[e-1] + uint32(v)}
}

// open creates a fresh store directory and opens it, returning how many
// milliseconds telemetry.Open took.
func (l *storeLoad) open(rec *recorder, seg int) (float64, error) {
	dir, err := os.MkdirTemp(l.p.tmpRoot, "store-")
	if err != nil {
		return 0, err
	}
	l.dir = dir
	t0 := now()
	l.store, err = telemetry.Open(dir, telemetry.DefaultOptions())
	d := since(t0)
	rec.leaf("telemetry.open", seg, t0, d)
	l.fresh = err == nil
	return millis(d), err
}

// setUp opens slice 0's store after running a short warm-up of every call
// the slices make on a throwaway store.
func (l *storeLoad) setUp() (map[string]float64, error) {
	l.tearDown()
	parallel.SetWorkers(l.p.workers)
	if _, err := l.open(nil, 0); err != nil {
		return nil, err
	}
	full := l.batches
	l.batches = full / 10
	if l.batches < scanEvery {
		l.batches = scanEvery
	}
	wacc := newAccum(0)
	err := l.fill(0, nil, wacc)
	l.batches = full
	if err != nil {
		return nil, err
	}
	if wacc.failed > 0 {
		return nil, fmt.Errorf("warm-up failed checks: %v", wacc.failureNames())
	}
	l.tearDown()
	l.dig = 0
	ms, err := l.open(nil, 0)
	return map[string]float64{"telemetry.open_ms": ms}, err
}

func (l *storeLoad) tearDown() {
	if l.store != nil {
		_ = l.store.Close() // discarded with its directory
		l.store = nil
	}
	if l.dir != "" {
		_ = os.RemoveAll(l.dir)
		l.dir = ""
	}
}

func (l *storeLoad) memoryBound() bool { return true }

func (l *storeLoad) digest() uint64 { return l.dig }

// slice fills a fresh store (slice 0 uses the one setUp opened).
func (l *storeLoad) slice(i int, rec *recorder, acc *accum) error {
	parallel.SetWorkers(l.p.workers)
	root := rec.begin("slice", i)
	defer rec.end(root)
	if !l.fresh {
		l.tearDown()
		if _, err := l.open(rec, i); err != nil {
			return err
		}
	}
	return l.fill(i, rec, acc)
}

// filling is the state of one slice's ingest-and-read schedule.
type filling struct {
	l   *storeLoad
	g   *generator
	st  *telemetry.Store
	rec *recorder
	acc *accum

	ingest, gets, kinds, scans                   time.Duration
	kindRows, scanRows, resultBytes, pointBlocks int64
}

// storeErr counts a failed store call and names it.
func (f *filling) storeErr(op string, err error) error {
	f.acc.fail("store_error", 1)
	return fmt.Errorf("%s: %w", op, err)
}

// fill runs one slice's ingest-and-read schedule on the open store.
func (l *storeLoad) fill(slice int, rec *recorder, acc *accum) error {
	f := &filling{l: l, g: newGenerator(l.p.seed, slice, l.vehicles), st: l.store, rec: rec, acc: acc}
	l.fresh = false
	var batch []telemetry.Event
	var arena []byte
	for e := 1; e <= l.batches; e++ {
		batch, arena = f.g.batch(batch[:0], arena[:0], e)
		a := now()
		err := f.st.Ingest(batch)
		d := since(a)
		rec.leaf("telemetry.ingest", e, a, d)
		acc.ops++
		if err != nil {
			return f.storeErr("ingest", err)
		}
		f.ingest += d
		acc.cur.partsUS = append(acc.cur.partsUS, micros(d))

		if e%getEvery == 0 {
			if err := f.pointReads(e); err != nil {
				return err
			}
		}
		if e%kindEvery == 0 {
			if err := f.kindQuery(e); err != nil {
				return err
			}
		}
		if e%scanEvery == 0 {
			if err := f.rangeScan(e); err != nil {
				return err
			}
		}
	}
	return f.finish(slice)
}

// pointReads does getsPerStop Gets on snapshot keys sampled uniformly from
// everything ingested up to epoch e, checking each payload against the
// generator.
func (f *filling) pointReads(e int) error {
	blocks0 := f.st.Stats().BlocksRead
	for k := 0; k < getsPerStop; k++ {
		r := f.g.next()
		v, ep := int(r%uint64(f.l.vehicles)), 1+int((r>>32)%uint64(e))
		key := f.g.snapshotKey(v, ep)
		a := now()
		got, ok, err := f.st.Get(key)
		d := since(a)
		f.rec.leaf("telemetry.get", e, a, d)
		f.acc.ops++
		if err != nil {
			return f.storeErr("get", err)
		}
		f.gets += d
		f.acc.opUS = append(f.acc.opUS, micros(d))
		f.l.payload = f.g.appendPayload(f.l.payload[:0], v, ep)
		f.resultBytes += int64(telemetry.KeySize + len(got))
		switch {
		case !ok:
			f.acc.fail("get_miss", 1)
		case !bytes.Equal(got, f.l.payload):
			f.acc.fail("get_payload_mismatch", 1)
		}
	}
	f.pointBlocks += f.st.Stats().BlocksRead - blocks0
	return nil
}

// kindQuery asks the secondary index for the reactive-brake events of the
// last kindWindowS virtual seconds and checks the row count.
func (f *filling) kindQuery(e int) error {
	lo := e - kindWindowS + 1
	if lo < 1 {
		lo = 1
	}
	want := int64(0)
	for k := lo; k <= e; k++ {
		want += int64(f.g.brakesAt[k])
	}
	q := telemetry.Query{TMinMs: uint64(lo) * 1000, TMaxMs: uint64(e) * 1000,
		Kinds: []telemetry.Kind{telemetry.KindReactiveBrake}}
	rows := int64(0)
	blocks0 := f.st.Stats().BlocksRead
	a := now()
	err := f.st.ScanByKind(q, func(ev telemetry.Event) bool {
		rows++
		f.resultBytes += int64(telemetry.KeySize + len(ev.Payload))
		return true
	})
	d := since(a)
	f.rec.leaf("telemetry.kind", e, a, d)
	f.acc.ops++
	if err != nil {
		return f.storeErr("kind query", err)
	}
	f.kinds += d
	f.kindRows += rows
	f.pointBlocks += f.st.Stats().BlocksRead - blocks0
	f.acc.observe("kind_ms", millis(d))
	if rows != want {
		f.acc.fail("kind_rows_vs_oracle", 1)
	}
	return nil
}

// rangeScan scans a scanSpan-vehicle range over all time and checks the row
// count.
func (f *filling) rangeScan(e int) error {
	lo := int(f.g.next() % uint64(f.l.vehicles-scanSpan+1))
	want := int64(0)
	for v := lo; v < lo+scanSpan; v++ {
		want += int64(f.g.perVehicle[v])
	}
	q := telemetry.Query{VehicleMin: uint32(lo), VehicleMax: uint32(lo + scanSpan - 1)}
	rows := int64(0)
	a := now()
	err := f.st.Scan(q, func(ev telemetry.Event) bool {
		rows++
		f.resultBytes += int64(telemetry.KeySize + len(ev.Payload))
		return true
	})
	d := since(a)
	f.rec.leaf("telemetry.scan", e, a, d)
	f.acc.ops++
	if err != nil {
		return f.storeErr("scan", err)
	}
	f.scans += d
	f.scanRows += rows
	if rows != want {
		f.acc.fail("scan_rows_vs_oracle", 1)
	}
	return nil
}

// finish checks durability — flush, close, reopen, and every event must
// still be there — and files the slice's counters and digest.
func (f *filling) finish(slice int) error {
	l, st, g, acc, rec := f.l, f.st, f.g, f.acc, f.rec
	acc.observe("heap_mb", heapMB())
	reads := st.Stats()
	idx, _ := st.IndexSize()
	a := now()
	err := st.Flush()
	rec.leaf("telemetry.flush", slice, a, since(a))
	acc.ops++
	if err != nil {
		return f.storeErr("flush", err)
	}
	final := st.Stats()
	runs, runBytes := st.Runs()
	a = now()
	err = st.Close()
	dc := since(a)
	rec.leaf("telemetry.close", slice, a, dc)
	acc.ops++
	l.store = nil
	if err != nil {
		return f.storeErr("close", err)
	}
	a = now()
	st, err = telemetry.Open(l.dir, telemetry.DefaultOptions())
	dr := since(a)
	rec.leaf("telemetry.reopen", slice, a, dr)
	acc.ops++
	if err != nil {
		return f.storeErr("reopen", err)
	}
	l.store = st
	n, err := st.Count(telemetry.Query{})
	acc.ops++
	if err != nil {
		return f.storeErr("count", err)
	}
	if n != g.events {
		acc.fail("reopen_count", 1)
	}
	if final.Events != g.events || final.UserBytes != g.userBytes {
		acc.fail("ingest_accounting", 1)
	}
	mb, err := st.ManifestBytes()
	if err != nil {
		return f.storeErr("manifest", err)
	}
	l.dig = mix(l.dig, digestOf(mb), uint64(final.Events), uint64(final.UserBytes), uint64(final.WALBytes),
		uint64(final.RunBytesWritten), uint64(final.Flushes), uint64(final.Compactions))

	acc.cur.work += float64(g.events)
	acc.cur.busy += f.ingest
	acc.observe("ingest_busy_ms", millis(f.ingest))
	acc.observe("get_busy_ms", millis(f.gets))
	acc.observe("kind_busy_ms", millis(f.kinds))
	acc.observe("scan_busy_ms", millis(f.scans))
	acc.observe("close_ms", millis(dc))
	acc.observe("reopen_ms", millis(dr))
	if f.kinds > 0 {
		acc.observe("kind_rows_per_s", float64(f.kindRows)/f.kinds.Seconds())
	}
	if f.scans > 0 {
		acc.observe("scan_rows_per_s", float64(f.scanRows)/f.scans.Seconds())
	}
	acc.observe("write_amp", final.WriteAmplification())
	acc.observe("space_amp", float64(runBytes)/float64(final.UserBytes))
	acc.observe("flushes", float64(final.Flushes))
	acc.observe("compactions", float64(final.Compactions))
	acc.observe("wal_bytes", float64(final.WALBytes))
	acc.observe("run_bytes_written", float64(final.RunBytesWritten))
	acc.observe("run_bytes_read", float64(reads.RunBytesRead))
	acc.observe("bloom_skips", float64(reads.BloomSkips))
	acc.observe("runs", float64(runs))
	acc.observe("index_entries", float64(idx))
	acc.observe("result_bytes", float64(f.resultBytes))
	acc.observe("kind_rows", float64(f.kindRows))
	acc.observe("point_blocks_read", float64(f.pointBlocks))
	acc.observe("gets", float64(l.batches/getEvery*getsPerStop))
	return nil
}

// heapMB is the heap in use right now, without forcing a collection: what
// the collector's pacing sees while the store is full.
func heapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
