// Package cloud is the block codec the fleet telemetry store writes its run
// files with (internal/telemetry/sst.go) and the Sec. VII model of the
// hourly field-data upload: a compression engine that RPR swaps onto the
// fabric only while it is needed. The codec (lz.go) is the kind of engine
// that section sizes: byte-oriented LZ at a fixed cost per byte, no entropy
// stage, its only state a 16 KB match table the caller holds, one per tile
// when the store compresses a batch of blocks in one fan-out; the decoder
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
// sized up front with headroom over the ~3.1x the store's blocks grow back
// by and over the slack the decoder's fixed-size copies write into, so a
// store block decodes in one allocation.
func Decompress(data []byte) ([]byte, error) {
	out, err := AppendDecompress(make([]byte, 0, 4*(len(data)+Slack)), data, -1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compressBps is the streaming rate of the FPGA compression engine that RPR
// swaps in for the hourly upload: fixed throughput while resident, zero cost
// while swapped out.
const compressBps float64 = 200e6

// compressBusy returns the compression engine's busy time for a payload.
func compressBusy(inputBytes int64) time.Duration {
	return time.Duration(float64(inputBytes) / compressBps * float64(time.Second))
}

// HourlyUploadPlan is the Sec. VII RPR use case evaluated end to end: swap
// the compressor in, compress an hour of sensor data, swap the localization
// variant back. It returns a human-readable cost summary.
func HourlyUploadPlan(hourBytes int64, swapCost time.Duration) string {
	busy := compressBusy(hourBytes)
	total := busy + 2*swapCost
	return fmt.Sprintf(
		"hourly upload: %.1f GB -> compress %.1fs + 2 swaps %.1f ms = %.1fs busy/hour (%.4f%% duty)",
		float64(hourBytes)/1e9, busy.Seconds(), 2*swapCost.Seconds()*1000,
		total.Seconds(), 100*total.Seconds()/3600)
}
