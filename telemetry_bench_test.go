// Benchmarks for the fleet telemetry backend (DESIGN.md §14): OLTP ingest
// throughput with its write amplification (WAL + run rewrites over user
// bytes), OLAP range-scan throughput with its read amplification (run
// bytes read over result bytes), and point-read latency under the bloom
// filters. scripts/bench.sh cloud turns the output into BENCH_cloud.json
// and carries the nightly --check regression gate.
package sov

import (
	"fmt"
	"testing"

	"sov/internal/telemetry"
)

// benchTelemetryEvents builds the synthetic fleet workload: per epoch, one
// snapshot per vehicle plus sparse incident events, mirroring what the
// fleet barrier emits. Payloads are realistic JSONL-sized (40-80 bytes).
func benchTelemetryEvents(vehicles, epochs int) []telemetry.Event {
	var out []telemetry.Event
	for e := 1; e <= epochs; e++ {
		tMs := uint64(e * 1000)
		for v := 0; v < vehicles; v++ {
			payload := fmt.Sprintf(`{"soc":0.%04d,"odo_m":%d.5,"state":"idle","trips":%d}`,
				(v*37+e)%10000, v*e, e%50)
			out = append(out, telemetry.Event{
				Key:     telemetry.Key{Vehicle: uint32(v), TMs: tMs, Kind: telemetry.KindEpoch},
				Payload: []byte(payload),
			})
			if (v+e)%17 == 0 {
				out = append(out, telemetry.Event{
					Key:     telemetry.Key{Vehicle: uint32(v), TMs: tMs, Kind: telemetry.KindReactiveBrake},
					Payload: []byte(`{"n":1}`),
				})
			}
		}
	}
	return out
}

// benchStoreOptions uses a small flush threshold so the benchmark exercises
// flushes and compactions, not just the memtable.
func benchStoreOptions() telemetry.Options {
	return telemetry.Options{FlushBytes: 256 << 10}
}

// BenchmarkTelemetryIngest is the OLTP write path: epoch-sized batches
// through WAL, batch sort, memtable merge, flush, and compaction.
// write_amp is total storage bytes written per user byte.
func BenchmarkTelemetryIngest(b *testing.B) {
	const vehicles, epochs = 200, 20
	events := benchTelemetryEvents(vehicles, epochs)
	batch := make([]telemetry.Event, 0, 2*vehicles)

	s, err := telemetry.Open(b.TempDir(), benchStoreOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	var userBytes int64
	for _, e := range events {
		userBytes += int64(telemetry.KeySize + len(e.Payload))
	}

	b.ReportAllocs()
	b.SetBytes(userBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One iteration = the whole workload, epoch batch by epoch batch
		// (timestamps repeat across iterations; Seq keeps keys unique).
		off := 0
		for off < len(events) {
			end := off
			t0 := events[off].Key.TMs
			for end < len(events) && events[end].Key.TMs == t0 {
				end++
			}
			batch = append(batch[:0], events[off:end]...)
			if err := s.Ingest(batch); err != nil {
				b.Fatal(err)
			}
			off = end
		}
	}
	b.StopTimer()
	// ManifestBytes joins the writer job still running, so write_amp and
	// compactions/op count it; unlike Flush, it leaves the memtable's
	// remainder unwritten and out of the figures.
	if _, err := s.ManifestBytes(); err != nil {
		b.Fatal(err)
	}
	st := s.Stats()
	b.ReportMetric(float64(st.Events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(st.WriteAmplification(), "write_amp")
	b.ReportMetric(float64(st.Compactions)/float64(b.N), "compactions/op")
}

// benchPopulatedStore builds one store holding the full workload.
func benchPopulatedStore(b *testing.B, vehicles, epochs int) *telemetry.Store {
	b.Helper()
	s, err := telemetry.Open(b.TempDir(), benchStoreOptions())
	if err != nil {
		b.Fatal(err)
	}
	events := benchTelemetryEvents(vehicles, epochs)
	batch := make([]telemetry.Event, 0, 2*vehicles)
	off := 0
	for off < len(events) {
		end := off
		t0 := events[off].Key.TMs
		for end < len(events) && events[end].Key.TMs == t0 {
			end++
		}
		batch = append(batch[:0], events[off:end]...)
		if err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
		off = end
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTelemetryScan is the OLAP path: a full-window range scan (every
// vehicle, every epoch) merged across all runs. read_amp is run bytes read
// per result byte — the size-tiered overlap cost analytics pay.
func BenchmarkTelemetryScan(b *testing.B) {
	const vehicles, epochs = 200, 50
	s := benchPopulatedStore(b, vehicles, epochs)
	defer s.Close()

	before := s.Stats()
	var rows, resultBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, resultBytes = 0, 0
		err := s.Scan(telemetry.Query{}, func(e telemetry.Event) bool {
			rows++
			resultBytes += int64(len(e.Payload))
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	read := s.Stats().RunBytesRead - before.RunBytesRead
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
	if resultBytes > 0 {
		b.ReportMetric(float64(read)/float64(b.N)/float64(resultBytes), "read_amp")
	}
}

// BenchmarkTelemetryKindQuery is the triage path: a kind-first query ("all
// reactive-brake events in a one-hour window"), answered by one primary scan
// of the window whose matches are re-sorted time-major.
func BenchmarkTelemetryKindQuery(b *testing.B) {
	const vehicles, epochs = 200, 50
	s := benchPopulatedStore(b, vehicles, epochs)
	defer s.Close()
	q := telemetry.Query{
		TMinMs: 10_000, TMaxMs: 40_000,
		Kinds: []telemetry.Kind{telemetry.KindReactiveBrake},
	}
	// Grow the store's row buffer outside the timed region.
	if err := s.ScanByKind(q, func(telemetry.Event) bool { return true }); err != nil {
		b.Fatal(err)
	}

	var rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = 0
		err := s.ScanByKind(q, func(e telemetry.Event) bool { rows++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("kind query matched nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkTelemetryGet is the OLTP point-read path: single-key lookups
// resolved through the memtable, bloom filters, and at most one block read
// per overlapping run. One op is a sweep over every harvested key, so even
// a handful of ops (scripts/bench.sh runs five) times hundreds of reads.
func BenchmarkTelemetryGet(b *testing.B) {
	const vehicles, epochs = 200, 50
	s := benchPopulatedStore(b, vehicles, epochs)
	defer s.Close()
	// Collect real keys to probe (every 7th event).
	var keys []telemetry.Key
	n := 0
	err := s.Scan(telemetry.Query{}, func(e telemetry.Event) bool {
		if n%7 == 0 {
			keys = append(keys, e.Key)
		}
		n++
		return true
	})
	if err != nil || len(keys) == 0 {
		b.Fatalf("key harvest: %d keys, err=%v", len(keys), err)
	}

	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, ok, err := s.Get(k); err != nil || !ok {
				b.Fatalf("get %v: ok=%v err=%v", k, ok, err)
			}
		}
	}
	b.StopTimer()
	d := s.Stats()
	gets := float64(b.N * len(keys))
	b.ReportMetric(gets/b.Elapsed().Seconds(), "gets/sec")
	b.ReportMetric(float64(d.BlocksRead-before.BlocksRead)/gets, "blocks/get")
}
