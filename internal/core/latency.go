package core

import (
	"time"

	"sov/internal/isp"
	"sov/internal/platform"
	"sov/internal/sched"
	"sov/internal/sim"
)

// latencyDraw is one control cycle's stage latency decomposition.
type latencyDraw struct {
	Sensing      time.Duration
	Depth        time.Duration
	Detection    time.Duration
	Tracking     time.Duration
	Localization time.Duration
	Perception   time.Duration
	Planning     time.Duration
	Tcomp        time.Duration
}

// latencyModel draws per-cycle stage latencies calibrated to Sec. V-C:
// sensing ≈ 84 ms mean (≈50% of Tcomp), perception 77 ms on the deployed
// mapping (120 ms without the FPGA offload), planning ≈ 3 ms; mean Tcomp
// 164 ms, best ≈ 149 ms, with a long tail reaching the 740 ms worst case.
type latencyModel struct {
	cfg    Config
	rng    *sim.RNG
	delays []time.Duration // reused per-draw ISP trace buffer
}

func newLatencyModel(cfg Config, rng *sim.RNG) *latencyModel {
	return &latencyModel{cfg: cfg, rng: rng}
}

const (
	exposure = 8 * time.Millisecond
	readout  = 12 * time.Millisecond
)

// draw produces one cycle's latencies. complexity in [0,1] scales the
// scene-dependent terms (dynamic scenes extract new features every frame,
// slowing localization; more objects slow detection post-processing).
// keyframe selects the feature-extraction front-end variant (slower than
// tracking by ~2×: 20 ms vs 10 ms class).
//
// tr, when non-nil, is the online scheduler's per-cycle Transform: mapping/
// operating-point/camera multipliers applied after every RNG draw, so the
// random stream is byte-identical for every scheduling decision. It
// supersedes the static Quant and FPGAOffload scaling (the scheduler owns
// the operating point and the contention factors fold into its mapping
// ratios), and at the deployed GPU/FPGA float point every multiplier is
// exactly 1.0 — the draw is bit-identical to the scheduler-off path.
func (m *latencyModel) draw(complexity float64, keyframe, radarStable bool, tr *sched.Transform) latencyDraw {
	var d latencyDraw

	// Sensing: exposure + readout + ISP/kernel/app pipeline.
	ispTr := isp.DeliverInto(m.delays, m.rng)
	m.delays = ispTr.Delays
	d.Sensing = exposure + readout + ispTr.Total
	if !m.cfg.HardwareSync {
		// Software sync adds an alignment search at the application
		// layer (buffering + nearest-timestamp matching).
		d.Sensing += time.Duration(m.rng.TruncNormal(4e6, 2e6, 0, 15e6))
	}

	// Perception tasks (deployed mapping: scene understanding on the GPU,
	// localization on the FPGA).
	d.Depth = time.Duration(m.rng.TruncNormal(40e6, 4e6, 32e6, 70e6))
	det := m.rng.TruncNormal(69e6, 5e6, 60e6, 100e6) * (1 + 0.1*complexity)
	// Rare inference stalls produce the field's long tail.
	if m.rng.Bernoulli(0.012) {
		det += m.rng.Exponential(120e6)
		if det > 600e6 {
			det = 600e6
		}
	}
	d.Detection = time.Duration(det)

	// Quantized perception: the int8 fused kernels back the dense
	// scene-understanding tasks, dividing their draws by the documented
	// fixed-point speedup. The factor is a constant, not a host
	// measurement, so quantized runs stay reproducible across machines
	// (BenchmarkQuantSpeedup validates the floor). Scaling happens after
	// the draws so the RNG stream is identical with and without -quant.
	if tr == nil && m.cfg.Quant {
		d.Depth = platform.QuantizedLatency(d.Depth)
		d.Detection = platform.QuantizedLatency(d.Detection)
	}
	if tr != nil {
		if tr.Quant {
			d.Depth = platform.QuantizedLatency(d.Depth)
			d.Detection = platform.QuantizedLatency(d.Detection)
		}
		d.Depth = time.Duration(float64(d.Depth) * tr.Depth)
		d.Detection = time.Duration(float64(d.Detection) * tr.Det)
	} else if m.cfg.Cameras > 1 {
		// Without the scheduler extra cameras run sequential inferences.
		d.Detection *= time.Duration(m.cfg.Cameras)
	}

	kcf := !(m.cfg.RadarTracking && radarStable)
	if !kcf {
		// Spatial synchronization on the CPU: ~1 ms (Sec. VI-B).
		d.Tracking = time.Duration(m.rng.TruncNormal(1e6, 0.2e6, 0.5e6, 2e6))
	} else {
		// KCF fallback: ~100× the spatial-sync cost. The fallback is visual
		// tracking on the scene-understanding processor, so the scheduler's
		// mapping ratio applies here and only here.
		d.Tracking = time.Duration(m.rng.TruncNormal(17e6, 3e6, 10e6, 30e6))
		if tr != nil {
			d.Tracking = time.Duration(float64(d.Tracking) * tr.Track)
		}
	}

	// Localization: 25 ms median, 14 ms std, complexity-driven (Sec. V-C).
	locMean := 21e6 + 16e6*complexity
	loc := 10e6 + m.rng.LogNormal(0, 0.5)*locMean*0.7
	if keyframe {
		loc *= 1.5 // feature extraction vs tracking front-end
	}
	if loc > 120e6 {
		loc = 120e6
	}
	if tr != nil {
		loc *= tr.Loc
	}
	d.Localization = time.Duration(loc)

	su := d.Detection + d.Tracking
	if d.Depth > su {
		su = d.Depth
	}
	locLat := d.Localization
	if tr == nil && !m.cfg.FPGAOffload {
		// Sharing the GPU inflates both groups (Fig. 8: 77→120 ms). With
		// the scheduler attached the contention lives in the mapping ratios
		// instead (platform.Contended folds it into every candidate).
		su = time.Duration(float64(su) * 120.0 / 77.0)
		locLat = time.Duration(float64(locLat) * 120.0 / 77.0)
	}
	d.Perception = su
	if locLat > d.Perception {
		d.Perception = locLat
	}

	// Planning (Sec. V-C: ~3 ms MPC; ~100 ms EM).
	if m.cfg.EMPlanner {
		d.Planning = time.Duration(m.rng.TruncNormal(100e6, 10e6, 70e6, 150e6))
	} else {
		d.Planning = time.Duration(m.rng.TruncNormal(3e6, 0.8e6, 1.5e6, 8e6))
	}

	d.Tcomp = d.Sensing + d.Perception + d.Planning
	return d
}
