package telemetry

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestManifestSeqIsTheFlushedBound: a writer job commits its MANIFEST with
// the frozen memtable's seq bound, not the store's, so the events the active
// memtable took while the job ran replay after a crash.
func TestManifestSeqIsTheFlushedBound(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushBytes: 4 << 10}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(10, 40)
	fed := 0
	for s.frozen == nil {
		ingestInBatches(t, s, events[fed:fed+10], 10)
		fed += 10
	}
	frozenAt := fed
	ingestInBatches(t, s, events[fed:fed+10], 10) // into the active memtable while the job runs
	fed += 10
	if err := s.join(); err != nil {
		t.Fatal(err)
	}
	if s.mem.len() != fed-frozenAt {
		t.Fatalf("active memtable holds %d events, want the %d ingested after the freeze", s.mem.len(), fed-frozenAt)
	}
	s.crash()
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, err := s.Count(Query{}); err != nil || n != int64(fed) {
		t.Fatalf("reopened store counts %d events, ingested %d: %v", n, fed, err)
	}
}

// primaryOrder answers q from the ingested slice in Scan's order.
func primaryOrder(events []Event, q Query) []Event {
	out := bruteForce(events, q)
	slices.SortFunc(out, func(a, b Event) int {
		switch {
		case a.Key.Less(b.Key):
			return -1
		case b.Key.Less(a.Key):
			return 1
		}
		return 0
	})
	return out
}

// TestReadsBesideARunningJob interleaves Ingest with every read while writer
// jobs run (CI runs it under -race at GOMAXPROCS 1, 2 and 8): Get, Scan,
// ScanByKind and Count answer as the brute-force model of what was ingested,
// and Stats and Runs return the state committed at the last join, which a
// running job does not move.
func TestReadsBesideARunningJob(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	events := modelEvents(rng, 2400)
	s, err := Open(t.TempDir(), Options{FlushBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ingested []Event
	beside := 0 // reads made before the running job had finished
	for fed := 0; fed < len(events); fed += 60 {
		batch := slices.Clone(events[fed : fed+60])
		if err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		ingested = append(ingested, batch...)
		if s.running && len(s.done) == 0 {
			beside++
		}
		st, runs := s.Stats(), s.runs
		count, runBytes := s.Runs()

		for range 3 {
			e := ingested[rng.Intn(len(ingested))]
			if p, ok, err := s.Get(e.Key); err != nil || !ok || !bytes.Equal(p, e.Payload) {
				t.Fatalf("after %d events: Get(%v) = %x %v %v, want %x", len(ingested), e.Key, p, ok, err, e.Payload)
			}
		}
		absent := Key{Vehicle: 5, TMs: 7, Kind: KindEpoch, Seq: uint32(len(ingested))}
		if _, ok, err := s.Get(absent); ok || err != nil {
			t.Fatalf("after %d events: Get of an absent key = %v %v", len(ingested), ok, err)
		}
		q := modelQuery(rng)
		var got []Event
		if err := s.Scan(q, func(e Event) bool {
			got = append(got, Event{Key: e.Key, Payload: slices.Clone(e.Payload)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := primaryOrder(ingested, q)
		if len(got) != len(want) {
			t.Fatalf("after %d events: Scan(%+v) = %d rows, want %d", len(ingested), q, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("after %d events: Scan(%+v) row %d is %v, want %v", len(ingested), q, i, got[i].Key, want[i].Key)
			}
		}
		got = got[:0]
		if err := s.ScanByKind(q, func(e Event) bool {
			got = append(got, Event{Key: e.Key, Payload: slices.Clone(e.Payload)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want = bruteForce(ingested, q)
		if len(got) != len(want) {
			t.Fatalf("after %d events: ScanByKind(%+v) = %d rows, want %d", len(ingested), q, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("after %d events: ScanByKind(%+v) row %d is %v, want %v", len(ingested), q, i, got[i].Key, want[i].Key)
			}
		}
		if n, err := s.Count(q); err != nil || n != int64(len(want)) {
			t.Fatalf("after %d events: Count(%+v) = %d %v, want %d", len(ingested), q, n, err, len(want))
		}

		after := s.Stats()
		if after.Events != int64(len(ingested)) || after.Flushes != st.Flushes || after.Compactions != st.Compactions ||
			after.RunBytesWritten != st.RunBytesWritten {
			t.Fatalf("after %d events: Stats moved under the reads: %+v, then %+v", len(ingested), st, after)
		}
		if c, b := s.Runs(); c != count || b != runBytes || !slices.Equal(s.runs, runs) {
			t.Fatalf("after %d events: Runs moved under the reads: %d runs %d bytes, then %d %d", len(ingested), count, runBytes, c, b)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes < 10 || st.Compactions == 0 {
		t.Fatalf("want many jobs and a merge, got %+v", st)
	}
	t.Logf("%d of %d read rounds began before the job they followed had finished", beside, len(events)/60)
}

// telemetryGoroutines returns the stacks of every goroutine, other than a
// test's, that has a frame in this package.
func telemetryGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sov/internal/telemetry.") && !strings.Contains(g, "sov/internal/telemetry.Test") {
			out = append(out, g)
		}
	}
	return out
}

// waitNoGoroutine fails unless every goroutine with a frame in this package
// has exited within five seconds.
func waitNoGoroutine(t *testing.T, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		left := telemetryGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %s, %d goroutines still in package telemetry:\n%s", after, len(left), strings.Join(left, "\n\n"))
		}
	}
}

// TestWriterJobLeavesNoGoroutine: a store's writer job and the coder it
// starts are its only goroutines, and both end with the job's work: none is
// left after Close, nor after any job, a failed one included, has ended,
// whether or not anything joined it.
func TestWriterJobLeavesNoGoroutine(t *testing.T) {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutine(t, "Close")

	// The next compaction merges a run with a corrupt block, and its job fails.
	bad := runPath(dir, s.runs[1].meta.id)
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(runMagic)+3] ^= 0x40
	os.WriteFile(bad, raw, 0o644)
	opts.NoCompact = false
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for ; fed+50 <= len(events); fed += 50 {
		if err = s.Ingest(slices.Clone(events[fed : fed+50])); err != nil {
			break
		}
		if s.running {
			for len(s.done) == 0 { // the job has not sent its result yet
				time.Sleep(time.Millisecond)
			}
			batches++
			waitNoGoroutine(t, "a job ended, not yet joined")
		}
	}
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("after %d batches: the job over a corrupt block: %v", batches, err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close after a failed job succeeded")
	}
	waitNoGoroutine(t, "Close after a failed job")
}

// TestCoderWriteErrorFailsTheJob: a run file closed under the writer as the
// job creates it fails the coder's first write through the file buffer. The
// job returns that error, removes the run it was writing and commits
// nothing, and neither it nor its coder outlives it.
func TestCoderWriteErrorFailsTheJob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	events := makeEvents(100, 600)
	fed := 0
	for s.join() == nil && len(s.runs) == 0 {
		ingestInBatches(t, s, events[fed:fed+100], 100)
		fed += 100
	}
	// The run holds several file buffers' worth, so the coder writes to the
	// file long before finish flushes the buffer.
	if b := s.runs[0].meta.bytes; b < 2*(1<<16) {
		t.Fatalf("a flushed run holds %d bytes, want more than two file buffers", b)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	closed := 0
	s.w.crashPoint = func(step string) {
		if step == "run created" {
			s.w.rw.f.Close()
			closed++
		}
	}
	for !s.running {
		ingestInBatches(t, s, events[fed:fed+100], 100)
		fed += 100
	}
	err = s.join()
	if closed != 1 || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("a job whose run file was closed (%d times) returned %v, want %v", closed, err, os.ErrClosed)
	}
	waitNoGoroutine(t, "a job whose coder failed")
	if name := unnamedRun(t, s); name != "" {
		t.Fatalf("%s is on disk but not in the MANIFEST", name)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(got, manifest) {
		t.Error("the MANIFEST changed after the failed job")
	}
	if err := s.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close after the failed job: %v, want its error", err)
	}
	waitNoGoroutine(t, "Close after a failed job")
}
