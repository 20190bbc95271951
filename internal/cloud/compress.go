// Package cloud is the block codec the fleet telemetry store writes its run
// files with (internal/telemetry/sst.go) and the Sec. VII model of the
// hourly field-data upload: a compression engine that RPR swaps onto the
// fabric only while it is needed. The codec (lz.go) is the kind of engine
// that section sizes: byte-oriented LZ at a fixed cost per byte, no entropy
// stage, its only state a 16 KB match table the caller holds; the decoder
// holds none.
package cloud

import (
	"fmt"
	"time"
)

// Compress encodes a payload (the hourly field-data upload of Sec. VII:
// "sensor samples captured in the field could be compressed and uploaded to
// the cloud; this task ... happens only once per hour, and thus could be
// swapped in only when needed" via RPR) into a fresh slice, sized up front
// for the half the store's blocks shrink to. It cannot fail; the error
// result stays for the callers that check it (benchmark/probes.go).
func Compress(data []byte) ([]byte, error) {
	var t Table
	return AppendCompress(make([]byte, 0, len(data)/2+16), data, &t), nil
}

// Decompress decodes a payload produced by Compress into a fresh slice,
// sized up front with headroom over the 2x the store's blocks grow back by.
func Decompress(data []byte) ([]byte, error) {
	out, err := AppendDecompress(make([]byte, 0, 3*len(data)+64), data, -1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompressionAccelerator models the FPGA compression engine that RPR swaps
// in for the hourly upload: fixed throughput and power while resident, zero
// cost while swapped out.
type CompressionAccelerator struct {
	// ThroughputBps is the streaming compression rate.
	ThroughputBps float64
	// PowerW while the accelerator is resident and active.
	PowerW float64
}

// DefaultCompressionAccelerator returns a 200 MB/s, 2 W engine.
func DefaultCompressionAccelerator() CompressionAccelerator {
	return CompressionAccelerator{ThroughputBps: 200e6, PowerW: 2}
}

// Job is one compression task's cost estimate.
type Job struct {
	InputBytes int64
	Duration   time.Duration
	EnergyJ    float64
}

// Estimate returns the accelerator cost for a payload.
func (a CompressionAccelerator) Estimate(inputBytes int64) Job {
	if a.ThroughputBps <= 0 {
		return Job{InputBytes: inputBytes}
	}
	d := time.Duration(float64(inputBytes) / a.ThroughputBps * float64(time.Second))
	return Job{InputBytes: inputBytes, Duration: d, EnergyJ: a.PowerW * d.Seconds()}
}

// HourlyUploadPlan is the Sec. VII RPR use case evaluated end to end: swap
// the compressor in, compress an hour of sensor data, swap the localization
// variant back. It returns a human-readable cost summary.
func HourlyUploadPlan(hourBytes int64, acc CompressionAccelerator, swapCost time.Duration) string {
	job := acc.Estimate(hourBytes)
	total := job.Duration + 2*swapCost
	return fmt.Sprintf(
		"hourly upload: %.1f GB -> compress %.1fs + 2 swaps %.1f ms = %.1fs busy/hour (%.4f%% duty)",
		float64(hourBytes)/1e9, job.Duration.Seconds(), 2*swapCost.Seconds()*1000,
		total.Seconds(), 100*total.Seconds()/3600)
}
