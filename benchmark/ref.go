package main

import (
	"bytes"
	"compress/flate"
	"math"
	"runtime"
	"sort"
	"time"
)

// The reference kernel is a fixed piece of work that belongs to the
// benchmark, not to the code under test: no change to the repository can
// move it, so its speed says what the host gives this process right now. It
// has two halves, chosen by measuring which kernels the workloads' two
// dominant kinds of code track when a neighbour on the shared host gets
// busy: four independent kinematic rollouts with a sin/cos pair per step
// (floating point with instruction-level parallelism, like the planner's
// cost function) and a FIFO fill/drain loop with data-dependent branches
// (integer and branchy, like the cycle-level models). A single dependency
// chain, such as a running sqrt sum, barely notices such a neighbour and
// calibrates nothing.

// refNominal is what the kernel takes on the authoring host when nothing
// else disturbs it. Host speed 1.0 means it ran in exactly this time.
const refNominal = 12 * time.Millisecond

func refKernel() time.Duration {
	t0 := now()

	var s, d, v, h, c [4]float64
	for k := range v {
		v[k] = 5 + float64(k)*0.1
	}
	for i := 0; i < 80_000; i++ {
		x := float64(i) * 1e-3
		for k := 0; k < 4; k++ {
			sn, cs := math.Sincos(h[k])
			s[k] += v[k] * cs * 0.1
			d[k] += v[k] * sn * 0.1
			h[k] += 0.01 * (x - math.Floor(x) - 0.5) * float64(k+1)
			v[k] += 0.001 * (5.6 - v[k])
			c[k] += d[k]*d[k] + (v[k]-5.6)*(v[k]-5.6) + h[k]*h[k]
		}
	}

	const bytes = 8 << 20
	fifo, sent, consumed, burst, handshake := 0, 0, 0, 0, 0
	cycles := 0
	for consumed < bytes {
		cycles++
		if sent < bytes {
			if burst == 0 && handshake == 0 {
				handshake = 4
			}
			if handshake > 0 {
				handshake--
				if handshake == 0 {
					burst = 16
				}
			} else if burst > 0 && fifo+8 <= 128 {
				fifo += 8
				sent += 8
				burst--
			}
		}
		if fifo > 0 {
			drain := 4
			if drain > fifo {
				drain = fifo
			}
			fifo -= drain
			consumed += drain
		}
	}

	el := since(t0)
	runtime.KeepAlive(s[0] + c[0] + c[1] + c[2] + c[3] + float64(cycles))
	return el
}

// refMemKernel is the memory-side counterpart: it deflates 4 KB blocks with
// a fresh standard-library writer each (a megabyte of allocation per block,
// so mostly allocator, zeroing and collector work) and sorts a few thousand
// keys. A store ingest is this kind of work, and on the shared host it is
// disturbed by different neighbours than arithmetic is: the compute kernel
// does not track it at all.
func refMemKernel() time.Duration {
	t0 := now()
	block := make([]byte, 4096)
	for i := range block {
		block[i] = byte(i*7 + i>>3)
	}
	keys := make([]uint64, 4096)
	var out bytes.Buffer
	total := 0
	for r := 0; r < 16; r++ {
		out.Reset()
		if fw, err := flate.NewWriter(&out, flate.BestSpeed); err == nil {
			_, _ = fw.Write(block) // writes to a bytes.Buffer cannot fail
			_ = fw.Close()
		}
		total += out.Len()
		x := uint64(r + 1)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	}
	el := since(t0)
	runtime.KeepAlive(total)
	return el
}

// refMemNominal is refNominal's counterpart for refMemKernel.
const refMemNominal = 12 * time.Millisecond

// hostSpeed is what the host gives this process right now, as nominal time
// over measured time of each reference kernel: below 1 the host is slower
// than nominal.
type hostSpeed struct {
	compute, memory float64
}

// measureHostSpeed times the compute kernel — and, when withMemory is set,
// the memory kernel — three times and uses the median: one sample is itself
// disturbed about as often as the work it is meant to calibrate, and the
// median of three drops a single disturbed sample. (Running the kernels on W
// goroutines for the multi-core workloads was tried and tracked them no
// better than one.)
func measureHostSpeed(withMemory bool) hostSpeed {
	var c, m [3]float64
	for i := range c {
		c[i] = refKernel().Seconds()
		if withMemory {
			m[i] = refMemKernel().Seconds()
		}
	}
	hs := hostSpeed{compute: refNominal.Seconds() / median(c[:])}
	if withMemory {
		hs.memory = refMemNominal.Seconds() / median(m[:])
	}
	return hs
}

// between is the speed over an interval that began at a and ended at b.
func between(a, b hostSpeed) hostSpeed {
	return hostSpeed{compute: (a.compute + b.compute) / 2, memory: (a.memory + b.memory) / 2}
}
