package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sov/internal/parallel"
)

// atWorkers runs f once per worker count and restores the setting.
func atWorkers(t *testing.T, f func(workers int)) {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		f(w)
	}
}

// storeDigest is the SHA-256 of a store's files, taken in name order over
// each name and its dirFingerprint.
func storeDigest(files map[string]string) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s\n", name, files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedStoreDigest is storeDigest of the store TestBatchCodecBytesAcrossWorkers
// builds. It changes only with the run format: the block codec, the block,
// index, bloom and footer layout, the MANIFEST or the WAL.
const pinnedStoreDigest = "5e6854f62531317ca5d374bcf3181e8f04c062e22716a014554ee477d14acea1"

// TestBatchCodecBytesAcrossWorkers: a store whose flushes span several
// write batches and whose compactions merge runs of several read-ahead
// batches leaves every run file, the MANIFEST and the WAL byte-identical,
// and counts the same I/O, at 1, 2 and 8 workers; and those bytes are the
// pinned ones.
func TestBatchCodecBytesAcrossWorkers(t *testing.T) {
	events := makeEvents(100, 200)
	var dirs []map[string]string
	var stats []Stats
	atWorkers(t, func(w int) {
		s, err := Open(t.TempDir(), Options{FlushBytes: 128 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer s.crash() // keep the WAL's tail for the comparison
		ingestInBatches(t, s, events, 100)
		st := s.Stats()
		if st.Flushes < tierFanout+1 || st.Compactions < 1 {
			t.Fatalf("workers %d: %d flushes, %d compactions; want a merge and a run flushed after it", w, st.Flushes, st.Compactions)
		}
		// Every live run, the flushed ones included, spans two write batches;
		// the merges read runs of that size, two read-ahead batches or more.
		for _, r := range s.runs {
			if len(r.index) <= batchBlocks {
				t.Fatalf("workers %d: run %06d has %d blocks, want more than %d", w, r.meta.id, len(r.index), batchBlocks)
			}
		}
		if st.BlocksRead < st.Compactions*tierFanout*(batchBlocks+1) {
			t.Fatalf("workers %d: %d compactions read %d blocks", w, st.Compactions, st.BlocksRead)
		}
		dirs = append(dirs, dirFingerprint(t, s.dir))
		stats = append(stats, st)
	})
	if len(dirs[0]) < 3 {
		t.Fatalf("store holds %d files, want runs, MANIFEST and WAL", len(dirs[0]))
	}
	if got := storeDigest(dirs[0]); got != pinnedStoreDigest {
		t.Errorf("store digest %s, pinned %s: the run format's bytes changed", got, pinnedStoreDigest)
	}
	for i, w := range []int{2, 8} {
		if !reflect.DeepEqual(stats[i+1], stats[0]) {
			t.Errorf("workers %d: stats %+v, at 1 worker %+v", w, stats[i+1], stats[0])
		}
		for name, want := range dirs[0] {
			if dirs[i+1][name] != want {
				t.Errorf("workers %d: %s differs from the one-worker store's", w, name)
			}
		}
		if len(dirs[i+1]) != len(dirs[0]) {
			t.Errorf("workers %d: %d files, at 1 worker %d", w, len(dirs[i+1]), len(dirs[0]))
		}
	}
}

// TestCorruptBlockInsideReadAheadBatch: a block whose crc fails in the
// middle of a merge input's second read-ahead batch fails the compaction
// with the error the block-at-a-time walk gives, naming that run and block,
// and leaves no run file the MANIFEST does not name — at any worker count.
func TestCorruptBlockInsideReadAheadBatch(t *testing.T) {
	const bad = readAhead + readAhead/2 // the middle of the second batch
	events := makeEvents(100, 80)
	atWorkers(t, func(w int) {
		dir := t.TempDir()
		s, err := Open(dir, Options{FlushBytes: 96 << 10, NoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.crash()
		fed := 0
		for len(s.runs) < tierFanout-1 {
			ingestInBatches(t, s, events[fed:fed+100], 100)
			fed += 100
		}
		victim := s.runs[1]
		if len(victim.index) <= bad {
			t.Fatalf("run %06d has %d blocks, want more than %d", victim.meta.id, len(victim.index), bad)
		}
		f, err := os.OpenFile(runPath(dir, victim.meta.id), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := []byte{0}
		at := int64(victim.index[bad].off) + 3
		f.ReadAt(b, at)
		b[0] ^= 0x40
		_, err = f.WriteAt(b, at)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}

		s.opts.NoCompact = false
		ingestInBatches(t, s, events[fed:fed+100], 100)
		err = s.Flush() // the fourth run: its tier merges
		want := fmt.Sprintf("telemetry: run %06d block %d: %v", victim.meta.id, bad, errBlockCRC)
		if err == nil || err.Error() != want {
			t.Fatalf("workers %d: compaction over a corrupt block: %v, want %q", w, err, want)
		}
		manifest, err := s.ManifestBytes()
		if err != nil {
			t.Fatal(err)
		}
		des, _ := os.ReadDir(dir)
		for _, de := range des {
			id, isRun := strings.CutPrefix(strings.TrimSuffix(de.Name(), ".sst"), "run-")
			if isRun && !strings.Contains(string(manifest), "run "+id+" ") {
				t.Fatalf("workers %d: %s is on disk but not in the MANIFEST:\n%s", w, de.Name(), manifest)
			}
		}
		if len(s.runs) != tierFanout {
			t.Fatalf("workers %d: %d runs live after the failed merge, want %d", w, len(s.runs), tierFanout)
		}
	})
}
