package rpr

import (
	"math/rand"
	"testing"
	"time"
)

func TestEngineThroughputAtLeast350MBps(t *testing.T) {
	// Paper: "Our RPR engine achieves over 350 MB/s".
	e := NewEngine(DefaultEngineConfig())
	r := e.Transfer(1 << 20)
	if r.Throughput < 350e6 {
		t.Fatalf("throughput = %.1f MB/s, want >= 350", r.Throughput/1e6)
	}
	if r.Throughput > 400e6 {
		t.Fatalf("throughput = %.1f MB/s exceeds the 4 B × 100 MHz ICAP limit", r.Throughput/1e6)
	}
}

func TestSwapUnder3ms(t *testing.T) {
	// Paper: reconfiguration delay < 3 ms for the localization variants.
	e := NewEngine(DefaultEngineConfig())
	for _, b := range []Bitstream{BitstreamFeatureExtract, BitstreamFeatureTrack} {
		r := e.Transfer(b.Bytes)
		if r.Duration >= 3*time.Millisecond {
			t.Fatalf("%s swap = %v, want < 3 ms", b.Name, r.Duration)
		}
	}
}

func TestSwapEnergyAbout2mJ(t *testing.T) {
	// Paper: ~2.1 mJ per reconfiguration.
	e := NewEngine(DefaultEngineConfig())
	r := e.Transfer(BitstreamFeatureExtract.Bytes)
	if r.EnergyJ < 0.5e-3 || r.EnergyJ > 5e-3 {
		t.Fatalf("energy = %v J, want ~2 mJ", r.EnergyJ)
	}
}

func TestCPUDrivenIsOrdersOfMagnitudeSlower(t *testing.T) {
	// Paper: stock CPU-mediated path runs at ~300 KB/s — about 1000×
	// slower than the engine.
	e := NewEngine(DefaultEngineConfig())
	bytes := 1 << 20
	re := e.Transfer(bytes)
	rc := CPUDrivenTransfer(bytes)
	ratio := rc.Duration.Seconds() / re.Duration.Seconds()
	if ratio < 500 {
		t.Fatalf("CPU/engine slowdown = %.0fx, want >= 500x", ratio)
	}
	if rc.Duration < 3*time.Second {
		t.Fatalf("CPU path for 1 MB = %v, want seconds", rc.Duration)
	}
}

func TestTransferExactByteCount(t *testing.T) {
	e := NewEngine(DefaultEngineConfig())
	for _, n := range []int{1, 7, 128, 4096, 100_001} {
		r := e.Transfer(n)
		if r.Bytes != n {
			t.Fatalf("bytes = %d, want %d", r.Bytes, n)
		}
		if r.Cycles <= 0 || r.Duration <= 0 {
			t.Fatalf("degenerate result for n=%d: %+v", n, r)
		}
	}
}

func TestFIFODepthMatters(t *testing.T) {
	// A 128-byte FIFO is "sufficient" (paper): a tiny FIFO stalls the
	// ICAP during burst handshakes and loses throughput.
	small := DefaultEngineConfig()
	small.FIFOBytes = 8
	rSmall := NewEngine(small).Transfer(1 << 18)
	rBig := NewEngine(DefaultEngineConfig()).Transfer(1 << 18)
	if rSmall.Throughput >= rBig.Throughput {
		t.Fatalf("small FIFO (%.0f MB/s) should underperform 128 B FIFO (%.0f MB/s)",
			rSmall.Throughput/1e6, rBig.Throughput/1e6)
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	e := NewEngine(DefaultEngineConfig())
	e.Transfer(1000)
	e.Transfer(2000)
	swaps, total, energy := e.Stats()
	if swaps != 2 || total <= 0 || energy <= 0 {
		t.Fatalf("stats = %d %v %v", swaps, total, energy)
	}
}

func TestManagerSwapsOnlyOnChange(t *testing.T) {
	m := NewManager()
	r1 := m.Require(BitstreamFeatureExtract)
	if r1.Bytes == 0 {
		t.Fatal("first require must transfer")
	}
	r2 := m.Require(BitstreamFeatureExtract)
	if r2.Bytes != 0 {
		t.Fatal("repeat require must be free")
	}
	r3 := m.Require(BitstreamFeatureTrack)
	if r3.Bytes == 0 {
		t.Fatal("variant change must transfer")
	}
	swaps, avoided := m.Stats()
	if swaps != 2 || avoided != 1 {
		t.Fatalf("swaps=%d avoided=%d", swaps, avoided)
	}
	if m.current != "feature-track" {
		t.Fatalf("current = %s", m.current)
	}
}

// TestManagerScriptedSequence drives the manager through a deterministic
// keyframe-style schedule and pins the exact swap accounting the online
// scheduler's NoteSwap charging depends on: every repeat Require is free
// (zero-duration Result, counted as avoided, never as a swap), every variant
// change transfers, and two managers fed the same script produce identical
// cumulative stats.
func TestManagerScriptedSequence(t *testing.T) {
	script := func(m *Manager) (swapTotal time.Duration) {
		// K T T T K T T K K T — a plausible extract/track schedule.
		seq := []Bitstream{
			BitstreamFeatureExtract, BitstreamFeatureTrack, BitstreamFeatureTrack,
			BitstreamFeatureTrack, BitstreamFeatureExtract, BitstreamFeatureTrack,
			BitstreamFeatureTrack, BitstreamFeatureExtract, BitstreamFeatureExtract,
			BitstreamFeatureTrack,
		}
		for i, b := range seq {
			r := m.Require(b)
			if m.current != b.Name {
				t.Fatalf("step %d: current = %s, want %s", i, m.current, b.Name)
			}
			if i > 0 && seq[i-1].Name == b.Name {
				if r.Duration != 0 || r.Bytes != 0 {
					t.Fatalf("step %d: repeat require of %s cost %v (%d bytes), want free",
						i, b.Name, r.Duration, r.Bytes)
				}
				continue
			}
			if r.Duration <= 0 {
				t.Fatalf("step %d: variant change to %s was free", i, b.Name)
			}
			swapTotal += r.Duration
		}
		return swapTotal
	}

	m1, m2 := NewManager(), NewManager()
	t1, t2 := script(m1), script(m2)
	s1, a1 := m1.Stats()
	if s1 != 6 || a1 != 4 {
		t.Fatalf("swaps=%d avoided=%d, want 6 swaps and 4 avoided", s1, a1)
	}
	s2, a2 := m2.Stats()
	if s1 != s2 || a1 != a2 || t1 != t2 {
		t.Fatalf("scripted runs diverged: (%d,%d,%v) vs (%d,%d,%v)", s1, a1, t1, s2, a2, t2)
	}
	eSwaps, eTotal, _ := m1.Engine.Stats()
	if eSwaps != s1 || eTotal != t1 {
		t.Fatalf("engine stats (%d, %v) disagree with manager accounting (%d, %v)",
			eSwaps, eTotal, s1, t1)
	}
}

func TestEngineResourceFootprint(t *testing.T) {
	r := EngineResources()
	if r.LUTs > 500 || r.FFs > 500 {
		t.Fatalf("engine too big: %+v (paper: ~400/400)", r)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero config", func() { NewEngine(EngineConfig{}) })
	// Configs whose datapath can never move a byte.
	for name, mut := range map[string]func(*EngineConfig){
		"no burst beats":       func(c *EngineConfig) { c.BurstBeats = 0 },
		"no handshake":         func(c *EngineConfig) { c.HandshakeCycles = 0 },
		"no memory beat":       func(c *EngineConfig) { c.MemBytesPerBeat = 0 },
		"beat wider than FIFO": func(c *EngineConfig) { c.MemBytesPerBeat = c.FIFOBytes + 1 },
	} {
		cfg := DefaultEngineConfig()
		mut(&cfg)
		mustPanic(name, func() { NewEngine(cfg) })
		// Cfg is an exported field: the same config written after
		// construction must still end in a panic, not a hang.
		e := NewEngine(DefaultEngineConfig())
		e.Cfg = cfg
		mustPanic(name+" (set after NewEngine)", func() { e.Transfer(4096) })
	}
}

func TestTransferOfNothingIsFree(t *testing.T) {
	e := NewEngine(DefaultEngineConfig())
	for _, n := range []int{0, -1, -1 << 20} {
		if r := e.Transfer(n); r != (Result{}) {
			t.Fatalf("Transfer(%d) = %+v, want the zero Result", n, r)
		}
	}
	if swaps, total, energy := e.Stats(); swaps != 0 || total != 0 || energy != 0 {
		t.Fatalf("empty transfers were counted: %d swaps, %v, %v J", swaps, total, energy)
	}
}

// cycleModel is the per-cycle loop Transfer ran before it skipped the steady
// state, kept verbatim as the oracle: every cycle of the Tx/FIFO/Rx state
// machine is stepped, and the cycle count is returned.
func cycleModel(cfg EngineConfig, bytes int) int64 {
	fifo := 0
	sent := 0     // bytes pushed by Tx
	consumed := 0 // bytes accepted by ICAP
	var cycles int64
	burstRemaining := 0
	handshake := 0
	for consumed < bytes {
		cycles++
		// Tx side.
		if sent < bytes {
			if burstRemaining == 0 && handshake == 0 {
				handshake = cfg.HandshakeCycles
			}
			if handshake > 0 {
				handshake--
				if handshake == 0 {
					burstRemaining = cfg.BurstBeats
				}
			} else if burstRemaining > 0 && fifo+cfg.MemBytesPerBeat <= cfg.FIFOBytes {
				push := cfg.MemBytesPerBeat
				if sent+push > bytes {
					push = bytes - sent
				}
				fifo += push
				sent += push
				burstRemaining--
			}
		}
		// Rx side drains into the ICAP.
		if fifo > 0 {
			drain := cfg.ICAPBytesPerCycle
			if drain > fifo {
				drain = fifo
			}
			fifo -= drain
			consumed += drain
		}
		if cycles > int64(bytes)*100+1000 {
			panic("rpr: transfer did not converge")
		}
	}
	return cycles
}

// datapath builds a config from raw draws, folding each into the range the
// exactness tests cover: ICAP width 1–9, beat 1–16, burst 1–32, handshake
// 1–12, FIFO from one beat to one beat plus 300 bytes.
func datapath(icap, beat, burst, handshake, fifoExtra uint) EngineConfig {
	cfg := DefaultEngineConfig()
	cfg.ICAPBytesPerCycle = 1 + int(icap%9)
	cfg.MemBytesPerBeat = 1 + int(beat%16)
	cfg.BurstBeats = 1 + int(burst%32)
	cfg.HandshakeCycles = 1 + int(handshake%12)
	cfg.FIFOBytes = cfg.MemBytesPerBeat + int(fifoExtra%301)
	return cfg
}

func checkAgainstCycleModel(t *testing.T, cfg EngineConfig, bytes int) {
	t.Helper()
	e := NewEngine(cfg)
	if got, want := e.Transfer(bytes).Cycles, cycleModel(cfg, bytes); got != want {
		t.Fatalf("%+v: Transfer(%d) took %d cycles, the per-cycle model %d", cfg, bytes, got, want)
	}
}

func TestTransferMatchesCycleModel(t *testing.T) {
	configs := 300
	if testing.Short() {
		configs = 40
	}
	rng := rand.New(rand.NewSource(9))
	for i := -1; i < configs; i++ {
		cfg := DefaultEngineConfig()
		if i >= 0 {
			cfg = datapath(uint(rng.Uint32()), uint(rng.Uint32()), uint(rng.Uint32()), uint(rng.Uint32()), uint(rng.Uint32()))
		}
		sizes := []int{1, 3, 127, 128, 129, 4096, 65537, 900 * 1024, 1 << 20,
			1 + rng.Intn(1<<20), 1 + rng.Intn(1<<12)}
		for _, n := range sizes {
			checkAgainstCycleModel(t, cfg, n)
		}
	}
}

func FuzzTransferMatchesCycleModel(f *testing.F) {
	f.Add(uint(3), uint(7), uint(15), uint(3), uint(120), uint(1<<20)) // the deployed engine, 1 MiB
	f.Add(uint(0), uint(0), uint(0), uint(0), uint(0), uint(1))
	f.Add(uint(8), uint(15), uint(31), uint(11), uint(300), uint(900*1024))
	f.Fuzz(func(t *testing.T, icap, beat, burst, handshake, fifoExtra, bytes uint) {
		checkAgainstCycleModel(t, datapath(icap, beat, burst, handshake, fifoExtra), 1+int(bytes%(2<<20)))
	})
}

func BenchmarkEngineTransfer1MB(b *testing.B) {
	e := NewEngine(DefaultEngineConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Transfer(1 << 20)
	}
}

func TestTransferDoesNotAllocate(t *testing.T) {
	e := NewEngine(DefaultEngineConfig())
	if n := testing.AllocsPerRun(100, func() { e.Transfer(1 << 20) }); n != 0 {
		t.Fatalf("Transfer allocates %v times per call, want 0", n)
	}
}
