package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"sov/internal/models"
	"sov/internal/platform"
	"sov/internal/sched"
	"sov/internal/stats"
)

// Report is the run's characterization output: the Fig. 10 latency
// distributions plus safety/throughput counters.
type Report struct {
	// Stage latency samples in milliseconds.
	Tcomp        *stats.Sample
	Sensing      *stats.Sample
	Perception   *stats.Sample
	Planning     *stats.Sample
	Depth        *stats.Sample
	Detection    *stats.Sample
	Tracking     *stats.Sample
	Localization *stats.Sample
	// EndToEnd includes Tdata and Tmech (Fig. 2's pre-braking chain).
	EndToEnd *stats.Sample
	// PipelineDepth samples, at each capture, how many earlier commands are
	// still in flight (captured but undelivered) — the virtual-time overlap
	// of 10 Hz commands against a ~164 ms Tcomp (Sec. V-C).
	PipelineDepth *stats.Sample

	// QuantizedPerception records whether the run drew scene-understanding
	// latencies from the int8 fixed-point operating points (-quant).
	QuantizedPerception bool
	// Sched holds the online scheduler's cumulative decision record when the
	// run attached it (-sched); nil otherwise.
	Sched *sched.Stats

	Cycles              int
	CommandsDelivered   int
	BlockedCycles       int
	ReactiveEngagements int
	EncodeErrors        int
	Collisions          int
	MinClearance        float64
	// ProactiveFraction is the share of driving time NOT under a reactive
	// override (the paper: > 90% in the field).
	ProactiveFraction float64
	// ThroughputHz is delivered commands per second.
	ThroughputHz float64
	// DistanceM is the odometer distance covered.
	DistanceM float64
	// ADEnergyWh is the energy consumed by the autonomous-driving system
	// over the run (Table I's PAD integrated over the duration).
	ADEnergyWh float64
	// BatteryShare is ADEnergyWh as a fraction of the 6 kWh pack.
	BatteryShare float64
	// LateralRMSM is the root-mean-square lane-keeping error in meters —
	// the closed-loop navigation-quality metric the synchronization and
	// localization choices feed into.
	LateralRMSM float64

	collided      map[int]bool
	reactiveSteps int
	physSteps     int
	lateralSumSq  float64

	// Lean mode (Config.LeanReport): per-cycle latencies fold into
	// streaming accumulators instead of the raw Samples above, so a
	// thousand-vehicle fleet does not retain every cycle of every vehicle.
	// The observation order is the cycle order either way, so the
	// accumulated means are deterministic.
	lean      bool
	leanTcomp stats.Welford
	leanE2E   stats.Welford
	leanDepth stats.Welford
}

func (r *Report) init(lean bool) {
	r.lean = lean
	if !lean {
		r.Tcomp = stats.NewSample()
		r.Sensing = stats.NewSample()
		r.Perception = stats.NewSample()
		r.Planning = stats.NewSample()
		r.Depth = stats.NewSample()
		r.Detection = stats.NewSample()
		r.Tracking = stats.NewSample()
		r.Localization = stats.NewSample()
		r.EndToEnd = stats.NewSample()
		r.PipelineDepth = stats.NewSample()
	}
	r.MinClearance = math.Inf(1)
	r.collided = make(map[int]bool)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

func (r *Report) observe(d latencyDraw) {
	r.Cycles++
	if r.lean {
		r.leanTcomp.Observe(ms(d.Tcomp))
		return
	}
	r.Tcomp.Observe(ms(d.Tcomp))
	r.Sensing.Observe(ms(d.Sensing))
	r.Perception.Observe(ms(d.Perception))
	r.Planning.Observe(ms(d.Planning))
	r.Depth.Observe(ms(d.Depth))
	r.Detection.Observe(ms(d.Detection))
	r.Tracking.Observe(ms(d.Tracking))
	r.Localization.Observe(ms(d.Localization))
}

func (r *Report) observeE2E(total time.Duration) {
	if r.lean {
		r.leanE2E.Observe(ms(total))
		return
	}
	r.EndToEnd.Observe(ms(total))
}

func (r *Report) observeDepth(inflight int) {
	if r.lean {
		r.leanDepth.Observe(float64(inflight))
		return
	}
	r.PipelineDepth.Observe(float64(inflight))
}

// MeanTcompMS returns the mean per-cycle computing latency in milliseconds,
// from whichever store the report keeps (raw samples or the lean
// accumulator).
func (r *Report) MeanTcompMS() float64 {
	if r.lean {
		return r.leanTcomp.Mean()
	}
	return r.Tcomp.Mean()
}

// MeanE2EMS returns the mean end-to-end latency (Tcomp+Tdata+Tmech) in
// milliseconds.
func (r *Report) MeanE2EMS() float64 {
	if r.lean {
		return r.leanE2E.Mean()
	}
	return r.EndToEnd.Mean()
}

func (r *Report) finish(duration time.Duration, s *SoV) {
	if r.physSteps > 0 {
		r.ProactiveFraction = 1 - float64(r.reactiveSteps)/float64(r.physSteps)
	}
	if duration > 0 {
		r.ThroughputHz = float64(r.CommandsDelivered) / duration.Seconds()
	}
	r.DistanceM = s.veh.Odometer()
	padW := models.DefaultPowerBudget().TotalW()
	r.ADEnergyWh = padW * duration.Hours()
	em := models.DefaultEnergyModel()
	r.BatteryShare = r.ADEnergyWh / (em.CapacityKWh * 1000)
	if r.physSteps > 0 {
		r.LateralRMSM = math.Sqrt(r.lateralSumSq / float64(r.physSteps))
	}
}

// ComputeShare returns mean Tcomp / mean end-to-end (the paper: 88%).
func (r *Report) ComputeShare() float64 {
	if r.MeanE2EMS() == 0 {
		return 0
	}
	return r.MeanTcompMS() / r.MeanE2EMS()
}

// SensingShare returns mean sensing / mean Tcomp (the paper: ≈50%). Lean
// reports do not retain the per-stage breakdown and return zero.
func (r *Report) SensingShare() float64 {
	if r.lean || r.Tcomp.Mean() == 0 {
		return 0
	}
	return r.Sensing.Mean() / r.Tcomp.Mean()
}

// Render formats the Fig. 10-style characterization tables.
func (r *Report) Render() string {
	if r.lean {
		return r.renderLean()
	}
	var b strings.Builder
	row := func(name string, s *stats.Sample) {
		fmt.Fprintf(&b, "%-14s best=%7.1f  mean=%7.1f  p99=%7.1f  max=%7.1f ms\n",
			name, s.Min(), s.Mean(), s.Quantile(0.99), s.Max())
	}
	fmt.Fprintf(&b, "computing latency (Tcomp) over %d cycles:\n", r.Cycles)
	row("  sensing", r.Sensing)
	row("  perception", r.Perception)
	row("  planning", r.Planning)
	row("  total", r.Tcomp)
	fmt.Fprintf(&b, "perception tasks (average case):\n")
	row("  depth", r.Depth)
	row("  detection", r.Detection)
	row("  tracking", r.Tracking)
	row("  localization", r.Localization)
	fmt.Fprintf(&b, "end-to-end (=Tcomp+Tdata+Tmech): mean=%.1f ms, computing share=%.0f%%\n",
		r.EndToEnd.Mean(), 100*r.ComputeShare())
	fmt.Fprintf(&b, "sensing share of Tcomp: %.0f%%\n", 100*r.SensingShare())
	fmt.Fprintf(&b, "throughput: %.1f Hz commands, proactive %.1f%% of time, %d reactive engagements\n",
		r.ThroughputHz, 100*r.ProactiveFraction, r.ReactiveEngagements)
	fmt.Fprintf(&b, "safety: %d collisions, min clearance %.2f m, distance %.0f m\n",
		r.Collisions, r.MinClearance, r.DistanceM)
	fmt.Fprintf(&b, "energy: AD system used %.1f Wh (%.2f%% of the 6 kWh pack)\n",
		r.ADEnergyWh, 100*r.BatteryShare)
	fmt.Fprintf(&b, "navigation: lane-keeping RMS %.3f m\n", r.LateralRMSM)
	fmt.Fprintf(&b, "pipeline depth (commands in flight at capture): mean=%.2f max=%.0f\n",
		r.PipelineDepth.Mean(), r.PipelineDepth.Max())
	if r.QuantizedPerception {
		fmt.Fprintf(&b, "perception compute: int8 fixed-point operating points (x%.1f)\n", platform.QuantSpeedup)
	}
	if sc := r.Sched; sc != nil {
		fmt.Fprintf(&b, "online scheduler: mapping=%s quant=%v sticky=%v temp=%.1fC windows=%d remaps=%d op-switches=%d rpr-swaps=%d (%.1f ms)\n",
			sc.Mapping, sc.Quantized, sc.Sticky, sc.TempC, sc.Windows, sc.Remaps, sc.OpSwitches, sc.Swaps, ms(sc.SwapTotal))
	}
	return b.String()
}

// renderLean is the compact characterization of a lean report: means and
// counters only, no distributions.
func (r *Report) renderLean() string {
	var b strings.Builder
	fmt.Fprintf(&b, "computing latency (Tcomp) over %d cycles: mean=%.1f ms (lean report, no distribution)\n",
		r.Cycles, r.leanTcomp.Mean())
	fmt.Fprintf(&b, "end-to-end (=Tcomp+Tdata+Tmech): mean=%.1f ms, computing share=%.0f%%\n",
		r.leanE2E.Mean(), 100*r.ComputeShare())
	fmt.Fprintf(&b, "throughput: %.1f Hz commands, proactive %.1f%% of time, %d reactive engagements\n",
		r.ThroughputHz, 100*r.ProactiveFraction, r.ReactiveEngagements)
	fmt.Fprintf(&b, "safety: %d collisions, min clearance %.2f m, distance %.0f m\n",
		r.Collisions, r.MinClearance, r.DistanceM)
	fmt.Fprintf(&b, "energy: AD system used %.1f Wh (%.2f%% of the 6 kWh pack)\n",
		r.ADEnergyWh, 100*r.BatteryShare)
	fmt.Fprintf(&b, "navigation: lane-keeping RMS %.3f m\n", r.LateralRMSM)
	fmt.Fprintf(&b, "pipeline depth (commands in flight at capture): mean=%.2f\n", r.leanDepth.Mean())
	if sc := r.Sched; sc != nil {
		fmt.Fprintf(&b, "online scheduler: mapping=%s quant=%v sticky=%v temp=%.1fC windows=%d remaps=%d op-switches=%d rpr-swaps=%d (%.1f ms)\n",
			sc.Mapping, sc.Quantized, sc.Sticky, sc.TempC, sc.Windows, sc.Remaps, sc.OpSwitches, sc.Swaps, ms(sc.SwapTotal))
	}
	return b.String()
}

// RenderHistogram draws the Tcomp distribution as a terminal bar chart
// (the visual form of Fig. 10a).
func (r *Report) RenderHistogram(bins, width int) string {
	if r.lean || r.Tcomp.N() == 0 {
		return "(no cycles)\n"
	}
	lo := r.Tcomp.Min()
	hi := r.Tcomp.Max() + 1
	h := stats.NewHistogram(lo, hi, bins)
	for q := 0.0; q <= 1.0; q += 1.0 / float64(r.Tcomp.N()) {
		h.Observe(r.Tcomp.Quantile(q))
	}
	return "Tcomp distribution (ms):\n" + h.Render(width)
}
