// Package cloud is the block codec the fleet telemetry store writes its run
// files with (internal/telemetry/sst.go) and the Sec. VII model of the
// hourly field-data upload: a compression engine that RPR swaps onto the
// fabric only while it is needed.
package cloud

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// codec is one deflate writer and one inflate reader with everything they
// write to and read from, reset per payload instead of rebuilt: a fresh
// flate.Writer carries ~1.2 MB of match tables, which dwarfs the 4 KB
// blocks the telemetry store compresses. Reset restores the exact initial
// state, so a reused codec's bytes equal a fresh writer's
// (TestCodecReuseMatchesFreshWriter). w and r are the boxed &out and &in,
// kept so that a reset boxes nothing.
type codec struct {
	out  sliceWriter
	w    io.Writer
	fw   *flate.Writer
	in   bytes.Reader
	r    io.Reader
	fr   io.ReadCloser
	tail [1]byte // probes for end of stream once a bounded inflate is full
}

// sliceWriter appends what the deflater emits to a caller's slice.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// codecs hands out idle codecs. The store is single-threaded, so in
// practice it holds one.
var codecs = sync.Pool{New: func() any {
	c := new(codec)
	c.w, c.r = &c.out, &c.in
	// BestSpeed is a valid level, the only error NewWriter has.
	c.fw, _ = flate.NewWriter(c.w, flate.BestSpeed)
	c.fr = flate.NewReader(c.r)
	return c
}}

// AppendCompress deflates src (BestSpeed) and appends the stream to dst.
func AppendCompress(dst, src []byte) ([]byte, error) {
	v := codecs.Get()
	out, err := v.(*codec).deflate(dst, src)
	codecs.Put(v)
	return out, err
}

func (c *codec) deflate(dst, src []byte) ([]byte, error) {
	c.out.b = dst
	c.fw.Reset(c.w)
	_, err := c.fw.Write(src)
	if err == nil {
		err = c.fw.Close()
	}
	out := c.out.b
	c.out.b = nil
	if err != nil {
		return dst, err
	}
	return out, nil
}

// errInflatedTooLong reports a stream that holds more than its caller's
// bound.
var errInflatedTooLong = errors.New("cloud: stream inflates past its stated length")

// AppendDecompress inflates src and appends the payload to dst. With
// limit >= 0 the payload may be at most limit bytes: inflation stops there
// and a longer stream is an error, which bounds what a crafted stream can
// make the caller hold; limit < 0 means no bound. On error dst comes back at
// its original length.
func AppendDecompress(dst, src []byte, limit int) ([]byte, error) {
	v := codecs.Get()
	c := v.(*codec)
	out, err := c.inflate(dst, src, limit)
	c.in.Reset(nil)
	codecs.Put(v)
	if err != nil {
		return dst, err
	}
	return out, nil
}

func (c *codec) inflate(dst, src []byte, limit int) ([]byte, error) {
	c.in.Reset(src)
	if err := c.fr.(flate.Resetter).Reset(c.r, nil); err != nil {
		return dst, err
	}
	end := -1
	if limit >= 0 {
		end = len(dst) + limit
	}
	for {
		full := len(dst) == end
		room := dst[len(dst):cap(dst)]
		switch {
		case full:
			room = c.tail[:] // the stream has to end here
		case end >= 0 && len(room) > end-len(dst):
			room = room[:end-len(dst)]
		case len(room) == 0:
			dst = slices.Grow(dst, len(dst)/2+512)
			continue
		}
		n, err := c.fr.Read(room)
		if full && n > 0 {
			return dst, errInflatedTooLong
		}
		if !full {
			dst = dst[:len(dst)+n]
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Compress deflates a payload (the hourly field-data upload of Sec. VII:
// "sensor samples captured in the field could be compressed and uploaded to
// the cloud; this task ... happens only once per hour, and thus could be
// swapped in only when needed" via RPR) into a fresh slice.
func Compress(data []byte) ([]byte, error) {
	return AppendCompress(nil, data)
}

// Decompress inflates a payload produced by Compress into a fresh slice,
// sized up front with headroom over the ~3x the store's blocks deflate by.
func Decompress(data []byte) ([]byte, error) {
	out, err := AppendDecompress(make([]byte, 0, 4*len(data)+64), data, -1)
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
