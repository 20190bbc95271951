package cloud

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// freshCompress and freshDecompress are the one-shot bodies Compress and
// Decompress had before the codec was reused: a new flate.Writer and
// flate.Reader per payload. They are the oracle the reused codec is held
// to, byte for byte.
func freshCompress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func freshDecompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	return io.ReadAll(r)
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

// checkAgainstFresh pushes one payload through the reused codec and holds
// the result to the oracle: same deflate bytes, and both inflate paths
// (bounded by the true length, and unbounded) give the payload back.
func checkAgainstFresh(t *testing.T, payload []byte) {
	t.Helper()
	want, err := freshCompress(payload)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	got, err := AppendCompress(append([]byte(nil), prefix...), payload)
	if err != nil {
		t.Fatalf("AppendCompress: %v", err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("reused codec deflated %d bytes to %d, a fresh writer to %d: streams differ", len(payload), len(got)-len(prefix), len(want))
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
		dst := make([]byte, 3, 64)
		if back, err := AppendDecompress(dst, want, len(payload)-1); err == nil || len(back) != 3 {
			t.Fatalf("a stream one byte past its limit inflated: %d bytes, err %v", len(back), err)
		}
	}
	z, err := Compress(payload)
	if err != nil || !bytes.Equal(z, want) {
		t.Fatalf("Compress differs from a fresh writer (err=%v)", err)
	}
	back, err := Decompress(z)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("Decompress(Compress(x)) != x (err=%v)", err)
	}
}

// TestCodecReuseMatchesFreshWriter: one codec carried across payloads of
// every shape, across a failed inflate, and across the deflater's internal
// offset wrap, emits what a fresh flate.NewWriter(BestSpeed) emits.
func TestCodecReuseMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	random := make([]byte, 64<<10)
	rng.Read(random)
	mib := bytes.Repeat([]byte(`{"cycle":1,"t_ms":100,"v":2.5,"objects":3}`+"\n"), 1<<20/43+1)[:1<<20]

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0x42}},
		{"store block", storeBlock(7)},
		{"1 MiB", mib},
		{"incompressible", random},
		{"store block after the rest", storeBlock(8)},
	}
	for _, c := range cases {
		checkAgainstFresh(t, c.payload)
		if t.Failed() {
			t.Fatalf("case %q", c.name)
		}
	}

	// A failed inflate leaves nothing behind for the next payload.
	z, _ := freshCompress(storeBlock(9))
	if _, err := AppendDecompress(nil, z[:len(z)/2], -1); err == nil {
		t.Fatal("truncated stream inflated without error")
	}
	checkAgainstFresh(t, storeBlock(9))

	// Every Reset moves the deflater's match-offset base on by 32 KiB, and
	// after 2^31 it rebases its table: 70 000 payloads through one codec
	// (held here, so that the pool cannot swap it for a younger one) cross
	// that point.
	c := codecs.Get().(*codec)
	defer codecs.Put(c)
	for i := 0; i < 70_000; i++ {
		if _, err := c.deflate(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, payload := range [][]byte{storeBlock(10), mib} {
		want, _ := freshCompress(payload)
		if got, err := c.deflate(nil, payload); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after 70 000 resets the codec deflated %d bytes to %d, a fresh writer to %d (err=%v)", len(payload), len(got), len(want), err)
		}
	}
}

// FuzzCodecSequence feeds one reused codec a fuzzed sequence of payloads
// (each a two-byte length and that many bytes of the input): every one
// deflates to a fresh writer's bytes and round-trips, and every one handed
// to the inflater as if it were a stream returns what a fresh reader
// returns, error or not, without panicking.
func FuzzCodecSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0x42})
	f.Add(append([]byte{0x10, 0x20}, storeBlock(3)...))
	z, _ := freshCompress(storeBlock(4))
	f.Add(append(binary.BigEndian.AppendUint16(nil, uint16(len(z))), z...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) >= 2 {
			n := int(binary.BigEndian.Uint16(data)) % 8192
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			payload := data[:n]
			data = data[n:]

			checkAgainstFresh(t, payload)
			want, wantErr := freshDecompress(payload)
			got, err := Decompress(payload)
			if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
				t.Fatalf("Decompress of arbitrary input: %d bytes, err %v; a fresh reader: %d bytes, err %v", len(got), err, len(want), wantErr)
			}
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
			t.Fatal("empty input must fail (no terminator)")
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
		// flate may or may not error on arbitrary bytes, but it must not
		// panic and must not reproduce anything but what the bytes decode
		// to; exercising it pins the no-panic contract.
		if out, err := Decompress(junk); err == nil && bytes.Equal(out, payload) {
			t.Fatal("garbage decoded to the original payload")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), z...), 0xde, 0xad)
		out, err := Decompress(mut)
		// flate stops at the stream terminator; the payload must survive.
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
	acc := DefaultCompressionAccelerator()
	// 1 hour of raw data at the paper's ~1 TB/day is ~42 GB.
	job := acc.Estimate(42 << 30)
	if job.Duration < 100*time.Second || job.Duration > 400*time.Second {
		t.Fatalf("42 GB at 200 MB/s = %v, want ~225 s", job.Duration)
	}
	if job.EnergyJ <= 0 {
		t.Fatal("energy must be positive")
	}
	if z := (CompressionAccelerator{}).Estimate(100); z.Duration != 0 {
		t.Fatal("degenerate accelerator should be zero, not Inf")
	}
}

func TestHourlyUploadPlanLowDuty(t *testing.T) {
	out := HourlyUploadPlan(42<<30, DefaultCompressionAccelerator(), 3*time.Millisecond)
	if !strings.Contains(out, "duty") {
		t.Fatalf("plan: %s", out)
	}
	// The whole point of RPR here: the compressor occupies the fabric a
	// few percent of the hour, not permanently.
	if !strings.Contains(out, "swaps") {
		t.Fatal("plan should include swap cost")
	}
}
