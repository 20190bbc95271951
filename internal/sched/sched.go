// Package sched is the online heterogeneous scheduler: it treats the
// perception stage graph (depth ∥ detection→tracking, localization) as a
// dataflow over the platform.Catalog processors and re-evaluates the
// task-to-processor mapping every cycle window from *observed* virtual-time
// latencies instead of the static Fig. 6 table. Three decisions are made at
// window boundaries, all deterministic functions of EWMA state accumulated
// on the engine thread in cycle order:
//
//   - remapping: per-task latency EWMAs, normalized back to the baseline
//     GPU/FPGA float operating point, are projected onto every candidate
//     (SU, Loc) processor pair — GPU contention included in the *candidate*
//     scoring via platform.Contended, so scoring and final evaluation cannot
//     diverge — and the mapping moves only when the best candidate beats the
//     current one by remapMargin (hysteresis against ping-ponging).
//
//   - operating point: a lumped thermal model (models.ThermalModel) over the
//     duty-scaled processor powers decides quant↔float switches. Entering the
//     int8 operating point requires the projected steady temperature to reach
//     the component ceiling (or battery SoC to fall to socEnter); exiting
//     requires the *float-equivalent* temperature — what the enclosure would
//     see if the switch were undone — to fall below thermalExitC, plus a
//     minimum dwell and SoC recovery, so the switch can never flap.
//
//   - localization front-end: the RPR keyframe schedule swaps bitstreams at
//     a measured rate; when the keyframe duty rises (dynamic traffic forcing
//     feature extraction almost every frame) the scheduler amortizes the
//     <3 ms swap cost against the cost of just leaving the extract bitstream
//     resident (paying a small tracking-on-extract penalty on the remaining
//     non-key cycles) and goes sticky, with a margin on both transitions.
//
// The estimator rates, margins and thresholds are package constants
// (DESIGN.md §13); Config holds what a caller sets: cameras, control rate,
// ambient, window, mapping and the static/quant pins.
//
// Every input is virtual-class (drawn latencies, virtual SoC, keyframe
// schedule), all state updates happen in BeginCycle/Observe on the engine
// thread in cycle order, and the decision functions are pure over that
// state — so runs are byte-identical across worker counts and control-loop
// modes. The hot per-cycle methods are allocation-free (//sov:hotpath).
package sched

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sov/internal/models"
	"sov/internal/platform"
	"sov/internal/rpr"
)

// Transform is the per-cycle latency scaling the scheduler hands the core
// latency model: multipliers relative to the baseline GPU/FPGA float draw,
// applied after the RNG draws so the random stream is identical for every
// mapping and operating point. Quant selects the int8 operating point for
// the dense scene-understanding tasks (the same platform.QuantizedLatency
// division the -quant flag applies); Det folds in both the mapping ratio
// and the multi-camera factor (sequential cameras multiply, batched cameras
// amortize); Track applies only to the KCF fallback branch (radar spatial
// sync runs on the CPU regardless of mapping).
type Transform struct {
	Depth, Det, Track, Loc float64
	Quant                  bool
}

// Events reports what a BeginCycle decided at a window boundary, for the
// observability layer (spans and counters are emitted by the core loop).
type Events struct {
	Remapped   bool
	OpSwitched bool
}

// Stats is the scheduler's cumulative decision record.
type Stats struct {
	Windows    int
	Remaps     int
	OpSwitches int
	// Swaps counts RPR bitstream swaps charged to cycles (via NoteSwap);
	// SwapTotal is their summed latency.
	Swaps     int
	SwapTotal time.Duration
	// Mapping is the current "SU/Loc" assignment; Quantized and Sticky are
	// the current operating point and front-end policy.
	Mapping   string
	Quantized bool
	Sticky    bool
	// TempC is the last float-equivalent steady temperature the thermal
	// model projected.
	TempC float64
}

// Config parameterizes the scheduler. DefaultConfig returns the deployed
// values.
type Config struct {
	// Cameras feeding scene understanding (detection inference per cycle).
	Cameras int
	// ControlRate converts per-cycle latencies into processor duty.
	ControlRate float64
	// AmbientC is the enclosure ambient for the thermal model.
	AmbientC float64

	// WindowCycles is the decision cadence.
	WindowCycles int

	// Mapping is the initial (SU, Loc) assignment; Static pins it and
	// disables all online decisions (experiment baselines).
	Mapping platform.Mapping
	Static  bool
	// QuantFloor pins the operating point at int8 (the -quant flag: the
	// perception stack is built quantized, so the scheduler may not float).
	QuantFloor bool
}

// DefaultConfig returns the deployed scheduler parameters.
func DefaultConfig() Config {
	return Config{
		Cameras:      1,
		ControlRate:  10,
		AmbientC:     25,
		WindowCycles: 10,
		Mapping:      platform.OurDesign(),
	}
}

// The deployed estimators and hysteresis constants (DESIGN.md §13).
const (
	// ewmaAlpha smooths the per-task latency estimates.
	ewmaAlpha float64 = 0.2
	// dutyAlpha smooths the thermal duty and front-end rate estimates
	// (slower, so single-cycle spikes do not flap decisions).
	dutyAlpha float64 = 0.05
	// remapMargin: a candidate must beat the current mapping's projected
	// perception latency by this fraction before a remap fires.
	remapMargin float64 = 0.05
	// thermalExitC: the float-equivalent temperature must fall below this
	// (strictly under the enter ceiling) before quant can be undone.
	thermalExitC float64 = 79
	// socEnter/socExit bound the battery-pressure hysteresis band.
	socEnter, socExit float64 = 0.25, 0.35
	// minDwellWindows is the minimum number of windows between operating-
	// point switches.
	minDwellWindows = 3
	// stickyMargin is the hysteresis ratio on front-end policy changes.
	stickyMargin float64 = 1.25
	// trackOnExtractPenalty is the localization slowdown of running the
	// feature-extract bitstream on a non-keyframe cycle (sticky policy).
	trackOnExtractPenalty float64 = 0.10
	// batchMarginal is the marginal cost of one extra image in a batched
	// inference relative to a standalone forward (layer-major batching
	// amortizes weight traffic; nn.ForwardRawBatch).
	batchMarginal float64 = 0.4
)

// thermal is the enclosure model; baseW the non-server power floor
// (sensors, idle) the duty-scaled processor powers add onto.
var (
	thermal = models.DefaultThermalModel()
	baseW   = models.DefaultPowerBudget().TotalW() - models.ServerDynamicPowerW
)

// ParseMapping parses an "SU/Loc" processor pair ("GPU/FPGA").
func ParseMapping(s string) (platform.Mapping, error) {
	su, loc, ok := strings.Cut(s, "/")
	if !ok || su == "" || loc == "" {
		return platform.Mapping{}, fmt.Errorf("sched: mapping %q is not SU/Loc", s)
	}
	return platform.Mapping{SceneUnderstanding: su, Localization: loc}, nil
}

// candidate is one precomputed (SU, Loc) assignment: task-latency ratios
// relative to the baseline GPU/FPGA float operating point (contention
// folded in), active powers for the thermal model, and batching capability.
type candidate struct {
	name                       string
	m                          platform.Mapping
	depthR, detR, trackR, locR float64
	powSU, powLoc              float64
	batch                      bool
}

// Scheduler is the online mapping/operating-point controller. All methods
// must be called from the engine thread in cycle order.
type Scheduler struct {
	cfg  Config
	cand []candidate
	cur  int

	cycle int

	// Per-task latency EWMAs, normalized to the baseline GPU/FPGA float
	// per-camera operating point (milliseconds), so candidate scoring is a
	// pure projection. seeded marks the first observation.
	nDepth, nDet, nTrack, nLoc float64
	seeded                     bool

	// Thermal duty EWMAs: the current mapping's float-equivalent scene-
	// understanding and localization busy milliseconds per cycle.
	suDutyMs, locDutyMs float64

	// Front-end policy state: keyframe duty, the rate at which the legacy
	// follow-the-keyframe policy would swap bitstreams, the observed swap
	// latency, and whether the extract bitstream is held resident.
	kfDuty, transRate float64
	swapMsEWMA        float64
	lastLegacyExtract bool
	feInit            bool
	sticky            bool
	feExtract         bool // this cycle's front-end choice

	quant        bool
	dwellWindows int

	lastTempC float64

	tr Transform
	// locApplied is the Loc multiplier issued this cycle (sticky penalty
	// included), needed to normalize the observation back out.
	locApplied float64

	stats Stats
}

// New builds a scheduler over the platform catalog. The initial mapping
// must name catalog processors that support the perception tasks.
func New(cfg Config) (*Scheduler, error) {
	if cfg.WindowCycles <= 0 || cfg.ControlRate <= 0 {
		return nil, fmt.Errorf("sched: config needs positive WindowCycles and ControlRate")
	}
	if cfg.Cameras < 1 {
		cfg.Cameras = 1
	}
	cat := platform.Catalog()
	baseDepth := float64(cat["GPU"].Latency[platform.TaskDepth])
	baseDet := float64(cat["GPU"].Latency[platform.TaskDetection])
	baseTrack := float64(cat["GPU"].Latency[platform.TaskTracking])
	baseLoc := float64(cat["FPGA"].Latency[platform.TaskLocalization])

	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)

	s := &Scheduler{cfg: cfg, cur: -1, swapMsEWMA: 2.7}
	for _, su := range names {
		sp := cat[su]
		d, ok1 := sp.Latency[platform.TaskDepth]
		det, ok2 := sp.Latency[platform.TaskDetection]
		trk, ok3 := sp.Latency[platform.TaskTracking]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		for _, loc := range names {
			lp := cat[loc]
			ll, ok := lp.Latency[platform.TaskLocalization]
			if !ok {
				continue
			}
			c := candidate{
				name:   su + "/" + loc,
				m:      platform.Mapping{SceneUnderstanding: su, Localization: loc},
				depthR: float64(d) / baseDepth,
				detR:   float64(det) / baseDet,
				trackR: float64(trk) / baseTrack,
				locR:   float64(ll) / baseLoc,
				powSU:  sp.PowerW,
				powLoc: lp.PowerW,
				batch:  sp.Batching,
			}
			if platform.Contended(cat, c.m) {
				c.depthR *= platform.ContentionFactor
				c.detR *= platform.ContentionFactor
				c.trackR *= platform.ContentionFactor
			}
			s.cand = append(s.cand, c)
			if c.m == cfg.Mapping {
				s.cur = len(s.cand) - 1
			}
		}
	}
	if s.cur < 0 {
		return nil, fmt.Errorf("sched: initial mapping %s/%s is not a schedulable catalog pair",
			cfg.Mapping.SceneUnderstanding, cfg.Mapping.Localization)
	}
	s.quant = cfg.QuantFloor
	s.lastTempC = thermal.SteadyTempC(baseW+thermal.FanPowerW, cfg.AmbientC)
	return s, nil
}

// camFactor is the detection multiplier for the camera count on a
// candidate: batching-capable processors amortize extra images at the
// marginal cost, everything else runs them sequentially.
func (s *Scheduler) camFactor(c *candidate) float64 {
	if s.cfg.Cameras <= 1 {
		return 1
	}
	if c.batch {
		return 1 + batchMarginal*float64(s.cfg.Cameras-1)
	}
	return float64(s.cfg.Cameras)
}

// score projects the normalized EWMAs onto a candidate at the current
// operating point: max(scene understanding, localization) in baseline-
// equivalent milliseconds. Pure over the EWMA state.
func (s *Scheduler) score(c *candidate) float64 {
	qf := 1.0
	if s.quant {
		qf = 1 / platform.QuantSpeedup
	}
	su := s.nDet*qf*c.detR*s.camFactor(c) + s.nTrack*c.trackR
	if d := s.nDepth * qf * c.depthR; d > su {
		su = d
	}
	if loc := s.nLoc * c.locR; loc > su {
		return loc
	}
	return su
}

// BeginCycle advances the scheduler one control cycle: at window boundaries
// it runs the decision function, then fills and returns the cycle's
// Transform plus any decision events. keyframe is the localization
// front-end schedule, soc the battery state of charge. The returned
// Transform is owned by the scheduler and valid until the next BeginCycle.
//
//sov:hotpath
func (s *Scheduler) BeginCycle(soc float64, keyframe bool) (*Transform, Events) {
	s.cycle++
	var ev Events
	if !s.cfg.Static && s.cycle > 1 && (s.cycle-1)%s.cfg.WindowCycles == 0 {
		ev = s.decide(soc)
	}

	c := &s.cand[s.cur]
	s.tr.Quant = s.quant
	s.tr.Depth = c.depthR
	s.tr.Det = c.detR * s.camFactor(c)
	s.tr.Track = c.trackR

	// Front-end choice: follow the keyframe schedule, or hold the extract
	// bitstream resident and pay the tracking-on-extract penalty off-key.
	s.feExtract = keyframe || s.sticky
	s.tr.Loc = c.locR
	if s.sticky && !keyframe {
		s.tr.Loc *= 1 + trackOnExtractPenalty
	}
	s.locApplied = s.tr.Loc

	// Policy-independent front-end telemetry: what the legacy schedule
	// would have loaded, and how often it transitions.
	legacyExtract := keyframe
	if s.feInit {
		t := 0.0
		if legacyExtract != s.lastLegacyExtract {
			t = 1
		}
		s.transRate += dutyAlpha * (t - s.transRate)
	}
	s.lastLegacyExtract = legacyExtract
	s.feInit = true
	kf := 0.0
	if keyframe {
		kf = 1
	}
	s.kfDuty += dutyAlpha * (kf - s.kfDuty)

	return &s.tr, ev
}

// Observe feeds one cycle's drawn task latencies (post-Transform, pre-RPR
// swap charge) back into the EWMA state, normalizing the applied mapping,
// operating-point, and camera factors back out so the estimates stay in
// baseline GPU/FPGA float per-camera terms. kcf reports whether tracking
// ran the KCF fallback (mapping-dependent) or radar spatial sync (CPU,
// mapping-independent).
//
//sov:hotpath
func (s *Scheduler) Observe(depth, det, track, loc time.Duration, kcf bool) {
	c := &s.cand[s.cur]
	qf := 1.0
	if s.quant {
		qf = platform.QuantSpeedup
	}
	depthMs := float64(depth) / 1e6
	detMs := float64(det) / 1e6
	trackMs := float64(track) / 1e6
	locMs := float64(loc) / 1e6

	nd := depthMs * qf / c.depthR
	ndet := detMs * qf / (c.detR * s.camFactor(c))
	ntrk := trackMs
	if kcf {
		ntrk = trackMs / c.trackR
	}
	nloc := locMs / s.locApplied

	a := ewmaAlpha
	if !s.seeded {
		s.nDepth, s.nDet, s.nTrack, s.nLoc = nd, ndet, ntrk, nloc
		s.suDutyMs = s.floatSU(depthMs, detMs, trackMs, qf)
		s.locDutyMs = locMs
		s.seeded = true
		return
	}
	s.nDepth += a * (nd - s.nDepth)
	s.nDet += a * (ndet - s.nDet)
	s.nTrack += a * (ntrk - s.nTrack)
	s.nLoc += a * (nloc - s.nLoc)

	// Thermal duty tracks the *float-equivalent* busy time of the current
	// mapping, so the exit condition evaluates the world where the quant
	// switch is undone (anti-flap: see decide).
	da := dutyAlpha
	s.suDutyMs += da * (s.floatSU(depthMs, detMs, trackMs, qf) - s.suDutyMs)
	s.locDutyMs += da * (locMs - s.locDutyMs)
}

// floatSU reconstructs the cycle's float-equivalent scene-understanding
// milliseconds from the observed (possibly quantized) draws.
func (s *Scheduler) floatSU(depthMs, detMs, trackMs, qf float64) float64 {
	su := detMs*qf + trackMs
	if d := depthMs * qf; d > su {
		su = d
	}
	return su
}

// decide runs at window boundaries: operating point, mapping, front-end
// policy. Pure over the EWMA state and soc.
func (s *Scheduler) decide(soc float64) Events {
	var ev Events
	s.stats.Windows++
	cfg := &s.cfg
	c := &s.cand[s.cur]

	// Operating point: duty-scaled processor powers over the base load. The
	// duty EWMAs are kept in observed (mapping-applied, float-equivalent)
	// milliseconds, so duty = busy ms / control period directly.
	perCycle := 1000 / cfg.ControlRate // ms of wall per control cycle
	loadF := baseW + thermal.FanPowerW +
		s.suDutyMs/perCycle*c.powSU + s.locDutyMs/perCycle*c.powLoc
	tempF := thermal.SteadyTempC(loadF, cfg.AmbientC)
	s.lastTempC = tempF

	s.dwellWindows++
	if !s.quant {
		if tempF >= thermal.MaxComponentTempC || soc <= socEnter {
			s.quant = true
			s.stats.OpSwitches++
			s.dwellWindows = 0
			ev.OpSwitched = true
		}
	} else if !cfg.QuantFloor && s.dwellWindows >= minDwellWindows &&
		tempF <= thermalExitC && soc >= socExit {
		s.quant = false
		s.stats.OpSwitches++
		s.dwellWindows = 0
		ev.OpSwitched = true
	}

	// Remap: strict improvement beyond the margin, candidates visited in
	// name order so ties resolve deterministically.
	curScore := s.score(c)
	best, bestScore := s.cur, curScore
	for i := range s.cand {
		if sc := s.score(&s.cand[i]); sc < bestScore {
			best, bestScore = i, sc
		}
	}
	if best != s.cur && bestScore < (1-remapMargin)*curScore {
		s.cur = best
		s.stats.Remaps++
		ev.Remapped = true
	}

	// Front-end policy: amortize the swap rate against the sticky penalty.
	costFollow := s.transRate * s.swapMsEWMA
	costSticky := (1 - s.kfDuty) * trackOnExtractPenalty * s.nLoc * s.cand[s.cur].locR
	if !s.sticky {
		if costSticky*stickyMargin < costFollow {
			s.sticky = true
		}
	} else if costFollow*stickyMargin < costSticky {
		s.sticky = false
	}
	return ev
}

// FrontEnd returns the localization front-end bitstream the current cycle
// should have resident (BeginCycle must have run this cycle).
//
//sov:hotpath
func (s *Scheduler) FrontEnd() rpr.Bitstream {
	if s.feExtract {
		return rpr.BitstreamFeatureExtract
	}
	return rpr.BitstreamFeatureTrack
}

// NoteSwap charges an RPR swap to the scheduler's accounting and updates
// the amortization estimate.
//
//sov:hotpath
func (s *Scheduler) NoteSwap(d time.Duration) {
	s.stats.Swaps++
	s.stats.SwapTotal += d
	s.swapMsEWMA += ewmaAlpha * (float64(d)/1e6 - s.swapMsEWMA)
}

// Snapshot returns the cumulative decision record.
func (s *Scheduler) Snapshot() Stats {
	st := s.stats
	st.Mapping = s.cand[s.cur].name
	st.Quantized = s.quant
	st.Sticky = s.sticky
	st.TempC = s.lastTempC
	return st
}
