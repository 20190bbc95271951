package cloud

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refDecode is the stream format written down a byte at a time, the oracle
// AppendDecompress is held to. Reading past the end of src, or copying from
// before the start of out, is how a corrupt stream shows.
func refDecode(src []byte) (out []byte, ok bool) {
	defer func() { ok = recover() == nil }()
	next := func() int { b := src[0]; src = src[1:]; return int(b) }
	length := func(n int) int {
		for b := 255; n >= 15 && b == 255; n += b {
			b = next()
		}
		return n
	}
	for {
		tok := next()
		for n := length(tok >> 4); n > 0; n-- {
			out = append(out, byte(next()))
		}
		if len(src) == 0 && tok&15 == 0 {
			return out, true
		}
		off := next() | next()<<8
		for n := length(tok&15) + 4; n > 0; n-- {
			out = append(out, out[len(out)-off])
		}
	}
}

// storeBlock lays out ~4 KB the way the telemetry store lays out a data
// block: one vehicle's consecutive snapshots, each an 18-byte big-endian
// key, a uvarint length and a JSON payload.
func storeBlock(vehicle uint32) []byte {
	var b []byte
	for e := uint64(1); len(b) < 4096; e++ {
		b = binary.BigEndian.AppendUint32(b, vehicle)
		b = binary.BigEndian.AppendUint64(b, e*1000)
		b = binary.BigEndian.AppendUint16(b, 0)
		b = binary.BigEndian.AppendUint32(b, uint32(e)*517+vehicle)
		p := fmt.Sprintf(`{"soc":0.%04d,"odo_m":%d.5,"state":"on-trip","trips":%d}`, (e*37+uint64(vehicle))%10000, e*uint64(vehicle+3), e%50)
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

// checkRoundTrip pushes one payload through tbl, whatever tbl compressed
// before, and holds the result to the oracles: the bytes a fresh table
// emits; the payload back through both limit forms, Decompress and the
// reference decoder; an error, with dst as it was, one byte under the limit.
func checkRoundTrip(t *testing.T, tbl *Table, payload []byte) []byte {
	t.Helper()
	want := AppendCompress(nil, payload, new(Table))
	prefix := []byte("kept")
	got := AppendCompress(append([]byte(nil), prefix...), payload, tbl)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("a reused table compressed %d bytes to %d, a fresh one to %d: streams differ", len(payload), len(got)-len(prefix), len(want))
	}
	for _, limit := range []int{len(payload), -1} {
		back, err := AppendDecompress(append([]byte(nil), prefix...), want, limit)
		if err != nil {
			t.Fatalf("AppendDecompress(limit %d): %v", limit, err)
		}
		if !bytes.HasPrefix(back, prefix) || !bytes.Equal(back[len(prefix):], payload) {
			t.Fatalf("AppendDecompress(limit %d) gave back %d bytes for %d", limit, len(back)-len(prefix), len(payload))
		}
	}
	if len(payload) > 0 {
		dst := append(make([]byte, 0, 64), prefix...)
		if back, err := AppendDecompress(dst, want, len(payload)-1); err == nil || !bytes.Equal(back, prefix) {
			t.Fatalf("a stream one byte past its limit decoded: %d bytes, err %v", len(back), err)
		}
	}
	if ref, ok := refDecode(want); !ok || !bytes.Equal(ref, payload) {
		t.Fatalf("the reference decoder gave back %d bytes for %d (ok=%v)", len(ref), len(payload), ok)
	}
	z, err := Compress(payload)
	if err != nil || !bytes.Equal(z, want) {
		t.Fatalf("Compress differs from AppendCompress on a fresh table (err=%v)", err)
	}
	back, err := Decompress(z)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("Decompress(Compress(x)) != x (err=%v)", err)
	}
	return want
}

// checkArbitrary hands the decoder bytes that need not be a stream: it
// agrees with the reference decoder on whether they are one and on what
// they hold, never returns more than limit allows, and on error returns dst
// at its length.
func checkArbitrary(t *testing.T, stream []byte) {
	t.Helper()
	want, valid := refDecode(stream)
	prefix := []byte("kept")
	for _, limit := range []int{-1, 0, len(want) - 1, len(want), 4096} {
		fits := valid && (limit < 0 || len(want) <= limit)
		got, err := AppendDecompress(append([]byte(nil), prefix...), stream, limit)
		switch {
		case (err == nil) != fits:
			t.Fatalf("limit %d: %d stream bytes decoded with err %v; the reference decoder: %d bytes, valid %v", limit, len(stream), err, len(want), valid)
		case err != nil && !bytes.Equal(got, prefix):
			t.Fatalf("limit %d: dst came back %d bytes long from a failed decode", limit, len(got))
		case err == nil && !bytes.Equal(got[len(prefix):], want):
			t.Fatalf("limit %d: decoded %d bytes, the reference decoder %d, or other bytes", limit, len(got)-len(prefix), len(want))
		}
	}
}

// farMatch is a 1 KB random pattern, random filler, and the pattern again
// distance bytes after its first copy: the only matches there are to find.
func farMatch(rng *rand.Rand, distance int) []byte {
	b := make([]byte, distance+1024)
	rng.Read(b[:distance])
	copy(b[distance:], b[:1024])
	return b
}

// TestCodecReuseMatchesFreshWriter: one table carried across payloads of
// every shape emits what a fresh table emits, and every stream decodes back
// through every decoder there is.
func TestCodecReuseMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	random := make([]byte, 64<<10)
	rng.Read(random)
	mib := bytes.Repeat([]byte(`{"cycle":1,"t_ms":100,"v":2.5,"objects":3}`+"\n"), 1<<20/43+1)[:1<<20]
	near, far := farMatch(rng, 65535), farMatch(rng, 65536)

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0x42}},
		{"two bytes", []byte("ab")},
		{"three bytes", []byte("abc")},
		{"four bytes", []byte("abcd")},
		{"store block", storeBlock(7)},
		{"1 MiB", mib},
		{"incompressible", random},
		{"zero run: a match overlapping its own output", make([]byte, 5000)},
		{"literal run of 15+255 and more", random[:15+255+3]},
		{"match of 19+255 and more", bytes.Repeat([]byte("0123456789abcdef"), 40)},
		{"match 65535 back", near},
		{"match 65536 back", far},
		{"store block after the rest", storeBlock(8)},
	}
	var tbl Table
	for _, c := range cases {
		checkRoundTrip(t, &tbl, c.payload)
		if t.Failed() {
			t.Fatalf("case %q", c.name)
		}
	}
	// 65 535 is the farthest a two-byte offset reaches: one byte further the
	// pattern's second copy has to go out as literals.
	if z, _ := Compress(near); len(z) > len(near)-512 {
		t.Fatalf("a pattern 65535 bytes back was not matched: %d -> %d", len(near), len(z))
	}
	if z, _ := Compress(far); len(z) < len(far) {
		t.Fatalf("a pattern 65536 bytes back was matched: %d -> %d", len(far), len(z))
	}

	// A failed decode leaves nothing behind for the next payload.
	z := checkRoundTrip(t, &tbl, storeBlock(9))
	if _, err := AppendDecompress(nil, z[:len(z)/2], -1); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	checkRoundTrip(t, &tbl, storeBlock(9))

	// Positions in the table are offsets into one payload, never a running
	// total, so no number of reuses wraps anything.
	for i := 0; i < 70_000; i++ {
		AppendCompress(nil, random[i%1000:][:64], &tbl)
	}
	checkRoundTrip(t, &tbl, storeBlock(10))
	checkRoundTrip(t, &tbl, mib)
}

// FuzzCodecSequence feeds one reused table a fuzzed sequence of payloads
// (each a two-byte length and that many bytes of the input): every one
// compresses to a fresh table's bytes and round-trips, and every one handed
// to the decoder as if it were a stream gets the reference decoder's
// verdict without a panic and without outgrowing its limit. The corpus under
// testdata predates the LZ format; its deflate streams are arbitrary bytes
// now, which is all this asks of them.
func FuzzCodecSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0x42})
	f.Add(append([]byte{0x10, 0x20}, storeBlock(3)...))
	z, _ := Compress(storeBlock(4))
	f.Add(append(binary.BigEndian.AppendUint16(nil, uint16(len(z))), z...))
	f.Add([]byte{0, 2, 'a', 'b', 0, 3, 'a', 'b', 'c', 0, 4, 'a', 'b', 'c', 'd'})
	f.Add(append([]byte{0x04, 0x00}, make([]byte, 1024)...))                           // a match overlapping its own output
	f.Add(append([]byte{0x01, 0x40}, bytes.Repeat([]byte("0123456789abcdef"), 20)...)) // a match of 19+255 and more
	noise := make([]byte, 15+255+18)
	rand.New(rand.NewSource(5)).Read(noise)
	f.Add(append([]byte{0x01, 0x20}, noise...)) // a literal run of 15+255 and more
	// Hand-built streams: "x"; "x" and a 274-byte match one back; a match
	// with nothing behind it.
	f.Add([]byte{0, 2, 0x10, 'x', 0, 7, 0x1f, 'x', 1, 0, 0xff, 0, 0, 0, 4, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tbl Table
		for len(data) >= 2 {
			n := int(binary.BigEndian.Uint16(data)) % 8192
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			payload := data[:n]
			data = data[n:]

			checkRoundTrip(t, &tbl, payload)
			checkArbitrary(t, payload)
		}
	})
}

// TestCompressRoundTripTable: Compress∘Decompress is the identity across
// payload shapes — empty, tiny, repetitive (compressible), random
// (incompressible), binary with zero runs, and multi-megabyte.
func TestCompressRoundTripTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 64<<10)
	rng.Read(random)
	zeros := make([]byte, 32<<10)
	big := bytes.Repeat([]byte(`{"cycle":1,"t_ms":100,"v":2.5,"objects":3}`+"\n"), 100_000)

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0x42}},
		{"short text", []byte("hello, fleet")},
		{"repetitive jsonl", []byte(strings.Repeat(`{"soc":0.95,"odo_m":120.5}`+"\n", 500))},
		{"random", random},
		{"zero run", zeros},
		{"multi-megabyte trace", big},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			z, err := Compress(c.payload)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			back, err := Decompress(z)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(back, c.payload) {
				t.Fatalf("round trip broke: %d bytes in, %d bytes back", len(c.payload), len(back))
			}
			// Deterministic within a build: same input, same bytes.
			z2, err := Compress(c.payload)
			if err != nil || !bytes.Equal(z, z2) {
				t.Fatalf("compression not deterministic (err=%v)", err)
			}
		})
	}
	// Repetitive payloads must actually shrink — the hourly upload's point.
	z, _ := Compress(big)
	if len(z) >= len(big)/10 {
		t.Fatalf("repetitive payload barely compressed: %d -> %d", len(big), len(z))
	}
}

// TestDecompressTruncatedAndCorrupt: every mangled input must return an
// error — never panic, never silently succeed with wrong bytes.
func TestDecompressTruncatedAndCorrupt(t *testing.T) {
	payload := []byte(strings.Repeat("sensor sample 0123456789 ", 2000))
	z, err := Compress(payload)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated stream", func(t *testing.T) {
		for _, keep := range []int{1, 2, len(z) / 2, len(z) - 1} {
			if _, err := Decompress(z[:keep]); err == nil {
				t.Fatalf("truncation to %d bytes decompressed without error", keep)
			}
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := Decompress(nil); err == nil {
			t.Fatal("empty input must fail (the empty payload's stream is one token)")
		}
	})
	t.Run("flipped header byte", func(t *testing.T) {
		mut := append([]byte(nil), z...)
		mut[0] ^= 0xff
		out, err := Decompress(mut)
		if err == nil && bytes.Equal(out, payload) {
			t.Fatal("corrupt header silently produced the original payload")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		junk := make([]byte, 4096)
		rand.New(rand.NewSource(3)).Read(junk)
		// Arbitrary bytes may or may not be a stream, but decoding them
		// must not panic and must not reproduce the payload.
		if out, err := Decompress(junk); err == nil && bytes.Equal(out, payload) {
			t.Fatal("garbage decoded to the original payload")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), z...), 0xde, 0xad)
		out, err := Decompress(mut)
		// Two bytes after the last literals read as a match offset with
		// nothing behind it: an error, or else the payload intact.
		if err == nil && !bytes.Equal(out, payload) {
			t.Fatal("trailing garbage corrupted the payload")
		}
	})
}

func TestCompressRoundTrip(t *testing.T) {
	payload := []byte(strings.Repeat(`{"kind":"heartbeat","at":123456}`, 200))
	c, err := Compress(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= len(payload)/4 {
		t.Fatalf("repetitive JSON compressed to %d/%d — ratio too weak", len(c), len(payload))
	}
	back, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(payload) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err == nil {
		t.Fatal("garbage should not inflate")
	}
}

func TestCompressionAcceleratorEstimate(t *testing.T) {
	// 1 hour of raw data at the paper's ~1 TB/day is ~42 GB.
	busy := compressBusy(42 << 30)
	if busy < 100*time.Second || busy > 400*time.Second {
		t.Fatalf("42 GB at 200 MB/s = %v, want ~225 s", busy)
	}
}

func TestHourlyUploadPlanLowDuty(t *testing.T) {
	out := HourlyUploadPlan(42<<30, 3*time.Millisecond)
	if !strings.Contains(out, "duty") {
		t.Fatalf("plan: %s", out)
	}
	// The whole point of RPR here: the compressor occupies the fabric a
	// few percent of the hour, not permanently.
	if !strings.Contains(out, "swaps") {
		t.Fatal("plan should include swap cost")
	}
}

// BenchmarkBlockCodec times the two calls the store makes per 4 KB block,
// into buffers that have held one, and reports the stored size.
func BenchmarkBlockCodec(b *testing.B) {
	blocks := make([][]byte, 64)
	for v := range blocks {
		blocks[v] = storeBlock(uint32(v))
	}
	var tbl Table
	var packed, raw []byte
	b.Run("Compress", func(b *testing.B) {
		stored := 0
		for i := 0; i < b.N; i++ {
			packed = AppendCompress(packed[:0], blocks[i%len(blocks)], &tbl)
			stored += len(packed)
		}
		b.ReportMetric(float64(stored)/float64(b.N), "stored_B/block")
		b.ReportMetric(float64(len(blocks[0])), "raw_B/block")
	})
	b.Run("Decompress", func(b *testing.B) {
		streams := make([][]byte, len(blocks))
		for v := range blocks {
			streams[v], _ = Compress(blocks[v])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if raw, err = AppendDecompress(raw[:0], streams[i%len(streams)], len(blocks[0])+64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
