// Package rpr models the runtime-partial-reconfiguration engine of
// Sec. V-B3 / Fig. 9: a decoupled Tx→FIFO→Rx datapath that streams partial
// bitstreams from DRAM into the FPGA's Internal Configuration Access Port
// (ICAP) without CPU involvement, versus the stock CPU-mediated path. The
// cycle-level model reproduces the paper's numbers: ≥350 MB/s engine
// throughput against ~300 KB/s for the CPU path, <3 ms swaps, ~2.1 mJ per
// reconfiguration, in ~400 LUTs + 400 FFs.
package rpr

import (
	"fmt"
	"time"
)

// The datapath's configuration clock (100 MHz on the Zynq) and active power.
const (
	clockHz      float64 = 100e6
	enginePowerW float64 = 0.7
)

// EngineConfig describes the reconfiguration datapath.
type EngineConfig struct {
	// ICAPBytesPerCycle is the ICAP port width (4 bytes).
	ICAPBytesPerCycle int
	// MemBytesPerBeat is the DRAM read width per burst beat (8 bytes).
	MemBytesPerBeat int
	// BurstBeats is the beats per memory burst (one handshake per burst).
	BurstBeats int
	// HandshakeCycles is the fixed cost of starting a burst.
	HandshakeCycles int
	// FIFOBytes decouples Tx from Rx (128 B suffices per the paper).
	FIFOBytes int
}

// DefaultEngineConfig returns the deployed engine parameters.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		ICAPBytesPerCycle: 4,
		MemBytesPerBeat:   8,
		BurstBeats:        16,
		HandshakeCycles:   4,
		FIFOBytes:         128,
	}
}

// Resources reports the engine's FPGA footprint (~400 FFs and ~400 LUTs).
type Resources struct {
	LUTs, FFs int
}

// EngineResources returns the datapath footprint.
func EngineResources() Resources { return Resources{LUTs: 400, FFs: 400} }

// Result summarizes one reconfiguration transfer.
type Result struct {
	Bytes      int
	Duration   time.Duration
	Throughput float64 // bytes/second
	EnergyJ    float64
	Cycles     int64
}

// Engine is the decoupled Tx/FIFO/Rx reconfiguration datapath.
type Engine struct {
	Cfg EngineConfig
	// telemetry
	swaps   int
	total   time.Duration
	energyJ float64
}

// NewEngine returns an engine with the given config. It panics on a config
// whose datapath can never move a byte: no ICAP port, no burst
// beats, no handshake to open a burst with, or a memory beat wider than the
// FIFO it is pushed into.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.ICAPBytesPerCycle <= 0 || cfg.FIFOBytes <= 0 ||
		cfg.BurstBeats < 1 || cfg.HandshakeCycles < 1 ||
		cfg.MemBytesPerBeat < 1 || cfg.MemBytesPerBeat > cfg.FIFOBytes {
		panic(fmt.Sprintf("rpr: invalid engine config %+v", cfg))
	}
	return &Engine{Cfg: cfg}
}

// Transfer simulates streaming a bitstream of the given size, cycle-exact:
// Tx bursts from memory into the FIFO (one handshake per burst, critically
// not per word — the design's key trick), while Rx drains the FIFO into the
// ICAP at its port width every cycle. A transfer of no bytes costs nothing
// and is not counted as a swap.
//
// Only the fill and drain edges are stepped cycle by cycle. A burst opens
// with the datapath in state (FIFO level, no beats pending, no handshake in
// flight), so once the FIFO level at a burst start repeats, everything in
// between repeats with it; the whole periods that fit before the end of the
// bitstream are then taken in one jump. The repeat is found with one saved
// burst start, re-taken at burst 1, 2, 4, 8, ... (Brent), so nothing is
// cached or allocated and any Cfg, including one changed between calls, is
// modelled exactly.
//
//sov:hotpath
func (e *Engine) Transfer(bytes int) Result {
	if bytes <= 0 {
		return Result{}
	}
	cfg := e.Cfg
	fifo := 0 // bytes pushed by Tx and not yet accepted by the ICAP
	sent := 0 // bytes pushed by Tx
	var cycles int64
	burstRemaining := 0
	handshake := 0
	// The saved burst start, and how many bursts until it is re-taken.
	seeking := true
	markFIFO, markSent, markCycles := -1, 0, int64(0)
	bursts, retake := 0, 1
	for sent < bytes || fifo > 0 {
		cycles++
		// Tx side.
		if sent < bytes {
			if burstRemaining == 0 && handshake == 0 {
				if seeking {
					if fifo == markFIFO {
						// One period moves dSent bytes in dCycles and
						// returns here. Jump all but the last whole period,
						// which is stepped so that no push in a skipped one
						// is the truncated final push.
						seeking = false
						dSent, dCycles := sent-markSent, cycles-markCycles
						if dSent == 0 {
							panic("rpr: transfer did not converge")
						}
						if n := (bytes-sent)/dSent - 1; n > 0 {
							sent += n * dSent
							cycles += int64(n) * dCycles
						}
					} else if bursts++; bursts == retake {
						markFIFO, markSent, markCycles = fifo, sent, cycles
						retake *= 2
					}
				}
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
		}
		if cycles > int64(bytes)*100+1000 {
			panic("rpr: transfer did not converge")
		}
	}
	dur := time.Duration(float64(cycles) / clockHz * float64(time.Second))
	res := Result{
		Bytes:      bytes,
		Duration:   dur,
		Throughput: float64(bytes) / dur.Seconds(),
		EnergyJ:    enginePowerW * dur.Seconds(),
		Cycles:     cycles,
	}
	e.swaps++
	e.total += dur
	e.energyJ += res.EnergyJ
	return res
}

// Stats reports cumulative swaps, time, and energy.
func (e *Engine) Stats() (swaps int, total time.Duration, energyJ float64) {
	return e.swaps, e.total, e.energyJ
}

// The stock Zynq flow: the processing system copies the bitstream through
// the kernel driver word by word at full CPU power.
const (
	// cpuDrivenBps is the stock path's effective rate (the paper: 300 KB/s).
	cpuDrivenBps float64 = 300 * 1024
	// cpuDrivenPowerW is the CPU power burned while copying.
	cpuDrivenPowerW float64 = 4
)

// CPUDrivenTransfer returns the stock path's cost for a bitstream.
func CPUDrivenTransfer(bytes int) Result {
	dur := time.Duration(float64(bytes) / cpuDrivenBps * float64(time.Second))
	return Result{
		Bytes:      bytes,
		Duration:   dur,
		Throughput: cpuDrivenBps,
		EnergyJ:    cpuDrivenPowerW * dur.Seconds(),
	}
}

// Bitstream identifies a reconfigurable accelerator variant.
type Bitstream struct {
	Name  string
	Bytes int
}

// The two localization front-end variants of Sec. V-B3: ORB-style feature
// extraction for key frames and Lucas–Kanade tracking for non-key frames
// (the latter executes in 10 ms, 50% faster). Both partial bitstreams are
// ~1 MB, keeping swaps under 3 ms.
var (
	BitstreamFeatureExtract = Bitstream{Name: "feature-extract", Bytes: 1 << 20}
	BitstreamFeatureTrack   = Bitstream{Name: "feature-track", Bytes: 900 * 1024}
)

// Manager time-shares one reconfigurable region between bitstream variants,
// swapping only when the requested variant differs from the loaded one.
type Manager struct {
	Engine  *Engine
	current string
	swaps   int
	hits    int
}

// NewManager returns a manager over a fresh default engine.
func NewManager() *Manager {
	return &Manager{Engine: NewEngine(DefaultEngineConfig())}
}

// Require ensures the named bitstream is loaded, returning the swap cost
// (zero when already resident).
func (m *Manager) Require(b Bitstream) Result {
	if m.current == b.Name {
		m.hits++
		return Result{}
	}
	m.current = b.Name
	m.swaps++
	return m.Engine.Transfer(b.Bytes)
}

// Stats reports swaps performed and avoided.
func (m *Manager) Stats() (swaps, avoided int) { return m.swaps, m.hits }
