package platform

import "time"

// DataPath models Sec. V-A's second critique of mobile SoCs: accelerator
// offload that routes sensor data through the CPU and the full memory
// hierarchy ("redundant data copying coordinated by the power-hungry CPU"),
// versus the FPGA design where accelerators manipulate sensor data in situ.
type DataPath struct {
	Name string
	// CopiesPerFrame is how many times the frame crosses memory before the
	// accelerator sees it.
	CopiesPerFrame int
	// CopyBandwidthBps is the effective memcpy bandwidth.
	CopyBandwidthBps float64
	// CoordinationPowerW is the CPU power burned coordinating the copies.
	CoordinationPowerW float64
	// FixedOverhead is driver/IPC cost per frame.
	FixedOverhead time.Duration
}

// MobileSoCDataPath returns the measured mobile-SoC DSP-offload path: the
// paper reports an extra ~1 W and up to ~3 ms per frame.
func MobileSoCDataPath() DataPath {
	return DataPath{
		Name:               "mobile-soc-dsp",
		CopiesPerFrame:     3, // sensor→DRAM, DRAM→CPU cache, CPU→DSP
		CopyBandwidthBps:   6e9,
		CoordinationPowerW: 1.0,
		FixedOverhead:      500 * time.Microsecond,
	}
}

// FrameOverhead returns the per-frame latency cost of the path for a frame
// of the given size.
func (p DataPath) FrameOverhead(frameBytes int) time.Duration {
	copyTime := time.Duration(float64(p.CopiesPerFrame) * float64(frameBytes) / p.CopyBandwidthBps * float64(time.Second))
	return p.FixedOverhead + copyTime
}

// SustainedPowerW returns the steady coordination power at a frame rate.
func (p DataPath) SustainedPowerW(frameBytes int, fps float64) float64 {
	duty := p.FrameOverhead(frameBytes).Seconds() * fps
	if duty > 1 {
		duty = 1
	}
	return p.CoordinationPowerW * duty
}
