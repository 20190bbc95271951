package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sov/internal/cloud"
)

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

// pinnedStoreDigest is storeDigest of the store TestStoreDigestPinned
// builds. It changes only with the run format: the block codec, the block,
// index, bloom and footer layout, the MANIFEST or the WAL.
const pinnedStoreDigest = "5e6854f62531317ca5d374bcf3181e8f04c062e22716a014554ee477d14acea1"

// TestStoreDigestPinned: a store whose flushes span many blocks and whose
// compactions merge runs of that size leaves run files, a MANIFEST and a
// WAL whose SHA-256 is the pinned one, however its writer jobs' timing
// falls once they are joined. The store fans nothing out, so the worker
// count cannot reach it; TestDeterminism's telemetry/store row compares its
// bytes at 1, 2 and 8 workers.
func TestStoreDigestPinned(t *testing.T) {
	const manyBlocks = 16
	s, err := Open(t.TempDir(), Options{FlushBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.crash() // keep the WAL's tail for the digest
	ingestInBatches(t, s, makeEvents(100, 200), 100)
	if err := s.join(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Flushes < tierFanout+1 || st.Compactions < 1 {
		t.Fatalf("%d flushes, %d compactions; want a merge and a run flushed after it", st.Flushes, st.Compactions)
	}
	// Every live run, the flushed ones included, spans many blocks, and the
	// merges read every block of runs of that size.
	for _, r := range s.runs {
		if len(r.index) <= manyBlocks {
			t.Fatalf("run %06d has %d blocks, want more than %d", r.meta.id, len(r.index), manyBlocks)
		}
	}
	if st.BlocksRead < st.Compactions*tierFanout*(manyBlocks+1) {
		t.Fatalf("%d compactions read %d blocks", st.Compactions, st.BlocksRead)
	}
	files := dirFingerprint(t, s.dir)
	if len(files) < 3 {
		t.Fatalf("store holds %d files, want runs, MANIFEST and WAL", len(files))
	}
	if got := storeDigest(files); got != pinnedStoreDigest {
		t.Errorf("store digest %s, pinned %s: the run format's bytes changed", got, pinnedStoreDigest)
	}
}

// TestCorruptBlockFailsMerge: a block whose crc fails in the middle of a
// merge input fails the writer job's compaction with an error naming that
// run and block, and leaves no run file the MANIFEST does not name and the
// committed runs as they were.
func TestCorruptBlockFailsMerge(t *testing.T) {
	const bad = 12 // a block well inside the run
	events := makeEvents(100, 80)
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushBytes: 96 << 10, NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.crash()
	fed := 0
	for s.join() == nil && len(s.runs) < tierFanout-1 {
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
		t.Fatalf("compaction over a corrupt block: %v, want %q", err, want)
	}
	if name := unnamedRun(t, s); name != "" {
		t.Fatalf("%s is on disk but not in the MANIFEST", name)
	}
	if len(s.runs) != tierFanout-1 {
		t.Fatalf("%d runs live after the failed merge, want the %d committed before it", len(s.runs), tierFanout-1)
	}
}

// TestCompressedBlockBoundary: a block is stored compressed only when that
// saves a tenth of it. Of two one-entry blocks, the one whose compressed
// form is one byte under nine tenths of the block is stored compressed,
// and the one that compresses to exactly nine tenths is stored raw, though
// compressing shrinks it too. Both read back.
func TestCompressedBlockBoundary(t *testing.T) {
	noise := make([]byte, blockTarget)
	rand.New(rand.NewSource(45)).Read(noise)
	var table cloud.Table
	// find returns a payload of blockTarget bytes, zeros then noise, whose
	// block under key k compresses to the block's nine tenths plus over.
	find := func(k Key, over int) (payload []byte, raw, packed int) {
		for z := 0; z < blockTarget; z++ {
			payload = append(make([]byte, z), noise[z:]...)
			block := binary.AppendUvarint(appendKey(nil, k), uint64(len(payload)))
			block = append(block, payload...)
			raw, packed = len(block), len(cloud.AppendCompress(nil, block, &table))
			if packed == raw-raw/10+over {
				return payload, raw, packed
			}
		}
		t.Fatalf("no payload compresses to nine tenths %+d", over)
		return nil, 0, 0
	}
	keys := []Key{{Vehicle: 1, TMs: 1000}, {Vehicle: 1, TMs: 2000}}
	under, underRaw, underPacked := find(keys[0], -1)
	at, atRaw, _ := find(keys[1], 0)

	path := filepath.Join(t.TempDir(), "run.sst")
	var w runWriter
	if err := w.begin(path, len(keys)); err != nil {
		t.Fatal(err)
	}
	for i, p := range [][]byte{under, at} {
		if err := w.add(keys[i], p); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := openRun(path, meta, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if len(r.index) != 2 {
		t.Fatalf("run has %d blocks, want one per entry", len(r.index))
	}
	if bm := r.index[0]; !bm.compressed || int(bm.rawLen) != underRaw || int(bm.storedLen) != underPacked {
		t.Errorf("block at nine tenths -1: compressed %v, %d of %d bytes stored; want compressed, %d of %d",
			bm.compressed, bm.storedLen, bm.rawLen, underPacked, underRaw)
	}
	if bm := r.index[1]; bm.compressed || int(bm.rawLen) != atRaw || int(bm.storedLen) != atRaw {
		t.Errorf("block at nine tenths: compressed %v, %d of %d bytes stored; want raw, %d of %d",
			bm.compressed, bm.storedLen, bm.rawLen, atRaw, atRaw)
	}
	var st Stats
	var c blockCursor
	c.seek(r, &st, 0, len(r.index)-1)
	for i, want := range [][]byte{under, at} {
		ok, err := c.next()
		if !ok || err != nil || c.key != keys[i] || !bytes.Equal(c.val, want) {
			t.Fatalf("entry %d: ok %v, err %v, key %+v (want %+v), payload equal %v", i, ok, err, c.key, keys[i], bytes.Equal(c.val, want))
		}
	}
	if ok, err := c.next(); ok || err != nil {
		t.Fatalf("past the last entry: ok %v, err %v", ok, err)
	}
}
