// Package platform models the hardware design space of Sec. V: the four
// candidate processors (server CPU, discrete GPU, Nvidia TX2-class mobile
// SoC, embedded FPGA) with per-task latency and energy operating points
// calibrated to the paper's measurements (Fig. 6), a GPU-contention model,
// and the perception mapping-space explorer that reproduces Fig. 8.
//
// The operating points are published measurements, not simulations: the
// paper's Fig. 6/8 are tables of measured values, and this package lets the
// mapping logic act on them (see DESIGN.md, substitutions).
package platform

import (
	"fmt"
	"sort"
	"time"
)

// Task identifies one perception/planning workload.
type Task int

// The tasks of Table III / Fig. 6.
const (
	TaskDepth Task = iota
	TaskDetection
	TaskTracking
	TaskLocalization
	TaskPlanning
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case TaskDepth:
		return "depth-estimation"
	case TaskDetection:
		return "object-detection"
	case TaskTracking:
		return "tracking"
	case TaskLocalization:
		return "localization"
	case TaskPlanning:
		return "planning"
	default:
		return fmt.Sprintf("task(%d)", int(t))
	}
}

// Processor is one hardware option with measured operating points.
type Processor struct {
	Name string
	// Latency per task; absent tasks cannot run on this processor.
	Latency map[Task]time.Duration
	// PowerW is the active power used for energy = power × latency.
	PowerW float64
	// Batching marks processors whose inference runtime amortizes
	// multi-image batches (layer-major batched forwards, DESIGN.md §10);
	// the online scheduler only batches multi-camera inference when scene
	// understanding sits on one of these.
	Batching bool
}

// Energy returns the energy of running the task once, in joules, and
// whether the processor supports the task.
func (p *Processor) Energy(t Task) (float64, bool) {
	lat, ok := p.Latency[t]
	if !ok {
		return 0, false
	}
	return p.PowerW * lat.Seconds(), true
}

// Catalog returns the four platforms with the paper's measured operating
// points (Fig. 6a latencies; energies follow from the active powers, e.g.
// depth on the CPU: 12.892 s × ~94 W ≈ 1207 J as annotated in Fig. 6b).
func Catalog() map[string]*Processor {
	return map[string]*Processor{
		"CPU": {
			Name: "CPU", // Intel Coffee Lake, 3.0 GHz, 9 MB LLC
			Latency: map[Task]time.Duration{
				TaskDepth:        12892 * time.Millisecond,
				TaskDetection:    2000 * time.Millisecond,
				TaskTracking:     100 * time.Millisecond,
				TaskLocalization: 90 * time.Millisecond,
				TaskPlanning:     3 * time.Millisecond,
			},
			PowerW: 94,
		},
		"GPU": {
			Name: "GPU", // Nvidia GTX 1060
			Latency: map[Task]time.Duration{
				TaskDepth:        40 * time.Millisecond,
				TaskDetection:    60 * time.Millisecond,
				TaskTracking:     17 * time.Millisecond,
				TaskLocalization: 31 * time.Millisecond,
			},
			PowerW:   120,
			Batching: true,
		},
		"TX2": {
			Name: "TX2", // Nvidia Jetson TX2 (Pascal GPU + Cortex-A57)
			Latency: map[Task]time.Duration{
				TaskDepth:        170 * time.Millisecond,
				TaskDetection:    570 * time.Millisecond,
				TaskTracking:     60 * time.Millisecond,
				TaskLocalization: 104200 * time.Microsecond,
			},
			PowerW:   12,
			Batching: true,
		},
		"FPGA": {
			Name: "FPGA", // Xilinx Zynq UltraScale+ (automotive grade)
			Latency: map[Task]time.Duration{
				TaskDepth:        120 * time.Millisecond,
				TaskDetection:    200 * time.Millisecond,
				TaskTracking:     30 * time.Millisecond,
				TaskLocalization: 24 * time.Millisecond,
			},
			PowerW: 6,
		},
	}
}

// QuantSpeedup is the fixed-point speedup backing the quantized operating
// points: int8 fused kernels (conv+bias+ReLU, FC, SAD cost aggregation, ISP
// pixel chain) against their float32 counterparts. It is a documented
// constant rather than a runtime measurement so simulated latencies stay
// reproducible across machines; BenchmarkQuantSpeedup validates the floor
// (fused int8 conv/FC ≥ 1.5× the float path) on every bench run. The
// second-generation SWAR/GEMM kernels (DESIGN.md §10) measure 3.8× on
// end-to-end detection and 12× on the stereo matcher; 2.5 keeps the
// operating-point scaling well inside the measured envelope while staying
// conservative about memory-bound embedded targets.
const QuantSpeedup = 2.5

// QuantizedLatency maps a float-path operating point to its fixed-point
// counterpart.
func QuantizedLatency(d time.Duration) time.Duration {
	return time.Duration(float64(d) / QuantSpeedup)
}

// TX2CumulativePerception returns the serial latency of running all three
// perception tasks on the TX2 (the paper: 844.2 ms — far beyond real-time).
func TX2CumulativePerception() time.Duration {
	tx2 := Catalog()["TX2"]
	return tx2.Latency[TaskDepth] + tx2.Latency[TaskDetection] + tx2.Latency[TaskLocalization]
}

// Mapping assigns the two perception task groups to processors.
type Mapping struct {
	// SceneUnderstanding hosts depth + detection (+ visual tracking
	// fallback).
	SceneUnderstanding string
	// Localization hosts the VIO accelerator.
	Localization string
}

// PerceptionResult is the evaluation of one mapping.
type PerceptionResult struct {
	Mapping Mapping
	// SceneUnderstandingLatency after contention.
	SceneUnderstandingLatency time.Duration
	// LocalizationLatency after contention.
	LocalizationLatency time.Duration
	// PerceptionLatency = max of the two parallel groups.
	PerceptionLatency time.Duration
}

// gpuContention inflates co-located scene understanding: the paper measures
// it at 77 ms alone on the GPU but 120 ms when localization shares the GPU.
// The catalog's 31 ms GPU localization is already the shared-GPU
// measurement (offloading to the FPGA takes it to 24 ms), so localization
// is not inflated further.
const gpuContentionFactor = 120.0 / 77.0

// ContentionFactor exposes the GPU co-location inflation for candidate
// scoring (the online scheduler applies it to every contended candidate,
// not just the chosen mapping, so scoring and EvaluateMapping agree).
const ContentionFactor = gpuContentionFactor

// Contended reports whether a mapping co-locates scene understanding and
// localization on the GPU — the one pairing the paper measures contention
// for. EvaluateMapping and the scheduler's candidate scoring both use it,
// so the two can never diverge.
func Contended(cat map[string]*Processor, m Mapping) bool {
	su, ok1 := cat[m.SceneUnderstanding]
	loc, ok2 := cat[m.Localization]
	return ok1 && ok2 && su == loc && su.Name == "GPU"
}

// EvaluateMapping computes the perception latency of a mapping, applying
// GPU contention when both groups share the GPU. Scene understanding is
// depth ∥ (detection → tracking); the slower chain dictates.
func EvaluateMapping(m Mapping, cat map[string]*Processor) (PerceptionResult, error) {
	su, ok := cat[m.SceneUnderstanding]
	if !ok {
		return PerceptionResult{}, fmt.Errorf("platform: unknown processor %q", m.SceneUnderstanding)
	}
	loc, ok := cat[m.Localization]
	if !ok {
		return PerceptionResult{}, fmt.Errorf("platform: unknown processor %q", m.Localization)
	}
	depth, ok1 := su.Latency[TaskDepth]
	det, ok2 := su.Latency[TaskDetection]
	trk, ok3 := su.Latency[TaskTracking]
	locLat, ok4 := loc.Latency[TaskLocalization]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return PerceptionResult{}, fmt.Errorf("platform: mapping %+v unsupported", m)
	}
	suLat := det + trk
	if depth > suLat {
		suLat = depth
	}
	if Contended(cat, m) {
		suLat = time.Duration(float64(suLat) * gpuContentionFactor)
	}
	perception := suLat
	if locLat > perception {
		perception = locLat
	}
	return PerceptionResult{
		Mapping:                   m,
		SceneUnderstandingLatency: suLat,
		LocalizationLatency:       locLat,
		PerceptionLatency:         perception,
	}, nil
}

// ExploreMappings evaluates the Fig. 8 mapping strategies and returns them
// sorted by perception latency (best first).
func ExploreMappings() []PerceptionResult {
	cat := Catalog()
	mappings := []Mapping{
		{SceneUnderstanding: "GPU", Localization: "FPGA"}, // our design
		{SceneUnderstanding: "GPU", Localization: "GPU"},
		{SceneUnderstanding: "GPU", Localization: "TX2"},
		{SceneUnderstanding: "TX2", Localization: "GPU"},
		{SceneUnderstanding: "TX2", Localization: "TX2"},
	}
	out := make([]PerceptionResult, 0, len(mappings))
	for _, m := range mappings {
		r, err := EvaluateMapping(m, cat)
		if err != nil {
			continue
		}
		out = append(out, r)
	}
	// Ties are real (TX2 scene understanding bottlenecks TX2/GPU and
	// TX2/TX2 identically), so the mapping names break them — sort.Slice is
	// unstable and would otherwise pin the order to the sort's internals.
	sort.Slice(out, func(i, j int) bool {
		if out[i].PerceptionLatency != out[j].PerceptionLatency {
			return out[i].PerceptionLatency < out[j].PerceptionLatency
		}
		a, b := out[i].Mapping, out[j].Mapping
		if a.SceneUnderstanding != b.SceneUnderstanding {
			return a.SceneUnderstanding < b.SceneUnderstanding
		}
		return a.Localization < b.Localization
	})
	return out
}

// OurDesign returns the deployed mapping (scene understanding on the GPU,
// localization offloaded to the FPGA).
func OurDesign() Mapping {
	return Mapping{SceneUnderstanding: "GPU", Localization: "FPGA"}
}
