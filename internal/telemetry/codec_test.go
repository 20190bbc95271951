package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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

// boundaryPayload returns a payload of blockTarget bytes, zeros then noise,
// whose one-entry block under key k compresses to the block's nine tenths
// plus over, and the block's raw and compressed lengths.
func boundaryPayload(t *testing.T, k Key, over int) (payload []byte, raw, packed int) {
	t.Helper()
	noise := make([]byte, blockTarget)
	rand.New(rand.NewSource(45)).Read(noise)
	var table cloud.Table
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

// TestCompressedBlockBoundary: a block is stored compressed only when that
// saves a tenth of it. Of two one-entry blocks, the one whose compressed
// form is one byte under nine tenths of the block is stored compressed,
// and the one that compresses to exactly nine tenths is stored raw, though
// compressing shrinks it too. Both read back.
func TestCompressedBlockBoundary(t *testing.T) {
	keys := []Key{{Vehicle: 1, TMs: 1000}, {Vehicle: 1, TMs: 2000}}
	under, underRaw, underPacked := boundaryPayload(t, keys[0], -1)
	at, atRaw, _ := boundaryPayload(t, keys[1], 0)

	path := filepath.Join(t.TempDir(), "run.sst")
	var w runWriter
	w.start()
	defer w.stop()
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

// refWriteRun is the serial run writer the coder goroutine replaced, kept as
// the oracle of runWriter's bytes: it codes each block as it fills, with
// one match table, and returns the run file and its index.
func refWriteRun(keys []Key, payloads [][]byte) ([]byte, []blockMeta) {
	out := []byte(runMagic)
	var (
		body, packed []byte
		bm           blockMeta
		index        []blockMeta
		table        cloud.Table
	)
	filter := newBloom(len(keys))
	writeBlock := func() {
		raw := len(body)
		packed = cloud.AppendCompress(packed[:0], body, &table)
		if bm.compressed = len(packed) < raw-raw/10; bm.compressed {
			body = append(body[:0], packed...)
		}
		bm.rawLen, bm.storedLen = uint32(raw), uint32(len(body))
		bm.crc = crc32.ChecksumIEEE(body)
		bm.off = uint64(len(out))
		index = append(index, bm)
		out = append(out, body...)
		body, bm = body[:0], blockMeta{}
	}
	for i, k := range keys {
		if bm.count == 0 {
			bm.firstKey = k
		}
		filter.add(hashKey(k))
		body = appendKey(body, k)
		body = binary.AppendUvarint(body, uint64(len(payloads[i])))
		body = append(body, payloads[i]...)
		bm.count++
		if len(body) >= blockTarget {
			writeBlock()
		}
	}
	if bm.count > 0 {
		writeBlock()
	}
	indexOff := uint64(len(out))
	var tail []byte
	for _, bm := range index {
		tail = appendKey(tail, bm.firstKey)
		if bm.compressed {
			tail = append(tail, 1)
		} else {
			tail = append(tail, 0)
		}
		tail = binary.LittleEndian.AppendUint64(tail, bm.off)
		tail = binary.LittleEndian.AppendUint32(tail, bm.storedLen)
		tail = binary.LittleEndian.AppendUint32(tail, bm.rawLen)
		tail = binary.LittleEndian.AppendUint32(tail, bm.count)
		tail = binary.LittleEndian.AppendUint32(tail, bm.crc)
	}
	indexLen := len(tail)
	tail = filter.appendTo(tail)
	bloomLen := len(tail) - indexLen
	crc := crc32.ChecksumIEEE(tail)
	tail = binary.LittleEndian.AppendUint64(tail, indexOff)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(index)))
	tail = binary.LittleEndian.AppendUint64(tail, indexOff+uint64(indexLen))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(bloomLen))
	tail = binary.LittleEndian.AppendUint64(tail, uint64(len(keys)))
	tail = appendKey(tail, keys[0])
	tail = appendKey(tail, keys[len(keys)-1])
	tail = binary.LittleEndian.AppendUint32(tail, crc)
	tail = append(tail, runFooterMagic...)
	return append(out, tail...), index
}

// TestRunWriterMatchesSerial: runWriter, whose coder goroutine codes the
// blocks the producer fills, writes the bytes of the serial oracle
// (refWriteRun) for every stream, at GOMAXPROCS 1 and 2, with every run of
// one job through one ring. The streams cover payloads that straddle
// blockTarget, incompressible blocks, blocks at the stored-compressed
// boundary, a one-entry run, a run of exactly one full block and runs that
// wrap the ring many times.
func TestRunWriterMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	type stream struct {
		name     string
		keys     []Key
		payloads [][]byte
		check    func(index []blockMeta) string // what the stream must exercise
	}
	gen := func(name string, n int, payload func(i int) []byte, check func([]blockMeta) string) stream {
		st := stream{name: name, check: check}
		for i := range n {
			st.keys = append(st.keys, Key{Vehicle: uint32(i / 7), TMs: uint64(i%7) * 1000, Seq: uint32(i)})
			st.payloads = append(st.payloads, payload(i))
		}
		return st
	}
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	text := func(i int) []byte {
		return fmt.Appendf(nil, `{"soc":0.%04d,"odo_m":%d,"state":"on-trip"}`, i%10000, i*37)
	}
	blocks := func(cond func(bm blockMeta) bool, want string) func([]blockMeta) string {
		return func(index []blockMeta) string {
			for _, bm := range index {
				if cond(bm) {
					return ""
				}
			}
			return "no block " + want
		}
	}
	streams := []stream{
		// Payloads of 1 B to 1.5 blockTarget, a third of them noise: most
		// blocks end on an entry that carries them past blockTarget.
		gen("straddling payloads", 300, func(i int) []byte {
			n := 1 + rng.Intn(blockTarget*3/2)
			if i%3 == 0 {
				return noise(n)
			}
			return bytes.Repeat(text(i), n/40+1)[:n]
		}, blocks(func(bm blockMeta) bool { return bm.rawLen > blockTarget*3/2 }, "carried half a target past blockTarget")),
		gen("incompressible blocks", 400, func(int) []byte { return noise(50 + rng.Intn(350)) },
			blocks(func(bm blockMeta) bool { return !bm.compressed && bm.rawLen >= blockTarget }, "full and stored raw")),
		gen("compressible, many blocks", 6000, text, func(index []blockMeta) string {
			if len(index) < 4*ringBlocks {
				return fmt.Sprintf("%d blocks, want the ring wrapped four times", len(index))
			}
			return ""
		}),
		gen("one entry", 1, text, func(index []blockMeta) string {
			if len(index) != 1 || index[0].count != 1 {
				return "want one block of one entry"
			}
			return ""
		}),
	}
	// Exactly one full block: 100-byte entries until the block reaches
	// blockTarget, so finish has no partial block to hand over.
	full := stream{name: "one full block", check: func(index []blockMeta) string {
		if len(index) != 1 || index[0].rawLen < blockTarget {
			return "want exactly one full block"
		}
		return ""
	}}
	for size := 0; size < blockTarget; size += KeySize + 1 + 100 {
		full.keys = append(full.keys, Key{Vehicle: 3, TMs: uint64(len(full.keys)) * 1000})
		full.payloads = append(full.payloads, bytes.Repeat([]byte("x"), 100))
	}
	streams = append(streams, full)

	// The stored-compressed boundary: one-entry blocks one byte under nine
	// tenths, at nine tenths, and under again.
	edge := stream{name: "nine-tenths boundary", check: func(index []blockMeta) string {
		if len(index) != 3 || !index[0].compressed || index[1].compressed || !index[2].compressed {
			return "want blocks compressed, raw, compressed"
		}
		return ""
	}}
	for i, over := range []int{-1, 0, -1} {
		k := Key{Vehicle: 9, TMs: uint64(i+1) * 1000}
		p, _, _ := boundaryPayload(t, k, over)
		edge.keys, edge.payloads = append(edge.keys, k), append(edge.payloads, p)
	}
	streams = append(streams, edge)

	dir := t.TempDir()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var w runWriter
			w.start()
			defer w.stop()
			for round := range 2 { // a second round through the same ring
				for i, st := range streams {
					want, index := refWriteRun(st.keys, st.payloads)
					if msg := st.check(index); msg != "" {
						t.Fatalf("%s: the stream does not exercise what it is for: %s", st.name, msg)
					}
					path := filepath.Join(dir, fmt.Sprintf("run-%d-%d-%d.sst", procs, round, i))
					if err := w.begin(path, len(st.keys)); err != nil {
						t.Fatal(err)
					}
					for j, k := range st.keys {
						if err := w.add(k, st.payloads[j]); err != nil {
							t.Fatal(err)
						}
					}
					meta, err := w.finish()
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("round %d, %s: %d bytes differ from the serial writer's %d", round, st.name, len(got), len(want))
					}
					if meta.bytes != int64(len(want)) || meta.entries != uint64(len(st.keys)) {
						t.Fatalf("round %d, %s: meta %+v for a %d-byte run of %d entries", round, st.name, meta, len(want), len(st.keys))
					}
				}
			}
		})
	}
}
