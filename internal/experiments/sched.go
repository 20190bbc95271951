package experiments

import (
	"fmt"
	"strings"
	"time"

	"sov/internal/core"
)

// This file regenerates the Fig. 6/8 mapping tables under *dynamic* traffic
// with the online heterogeneous scheduler in the loop (DESIGN.md §13). The
// static rows pin the scheduler to one mapping (exactly what the paper's
// design-time exploration commits to); the online rows let it remap, switch
// quant/float operating points under thermal pressure, and manage the RPR
// front-end while the task mix shifts underneath it. Everything is
// virtual-time deterministic, so the emitted numbers are byte-stable across
// machines and worker counts — which is why BENCH_sched.json can be an
// exact-diff regression baseline.

const (
	schedDynamicDuration = 240 * time.Second
	schedSteadyDuration  = 120 * time.Second
)

// schedDynamicConfig is the shared config of every dynamic-traffic row:
// hot enclosure (45 C ambient — parked in the sun, the paper's Sec. III-C
// environment concern), with complexity-forced keyframes so dense traffic
// shifts the RPR swap economics for every row alike.
func schedDynamicConfig(base core.Config, seed int64) core.Config {
	cfg := base
	cfg.Seed = seed
	cfg.Sched = true
	cfg.AmbientC = 45
	cfg.DynamicKeyframe = true
	return cfg
}

// schedRow is one mapping strategy evaluated under dynamic traffic.
type schedRow struct {
	name   string
	report *core.Report
}

func (r schedRow) p50() float64 { return r.report.Perception.Quantile(0.5) }
func (r schedRow) p99() float64 { return r.report.Perception.Quantile(0.99) }

// runSchedDynamic executes the dynamic-traffic sweep: the Fig. 8 static
// mappings as pinned baselines, then the online scheduler from the deployed
// start and from a deliberately bad (contended) start.
func runSchedDynamic(base core.Config, seed int64) []schedRow {
	type variant struct {
		name    string
		mapping string
		static  bool
	}
	variants := []variant{
		{"static GPU/FPGA (our design)", "GPU/FPGA", true},
		{"static GPU/GPU (contended)", "GPU/GPU", true},
		{"static GPU/TX2", "GPU/TX2", true},
		{"static TX2/TX2", "TX2/TX2", true},
		{"online", "GPU/FPGA", false},
		{"online (from GPU/GPU)", "GPU/GPU", false},
	}
	rows := make([]schedRow, 0, len(variants))
	for _, v := range variants {
		cfg := schedDynamicConfig(base, seed)
		cfg.SchedMapping = v.mapping
		cfg.SchedStatic = v.static
		w := core.DynamicTrafficScenario(seed)
		rep := core.New(cfg, w).Run(schedDynamicDuration)
		rows = append(rows, schedRow{name: v.name, report: rep})
	}
	return rows
}

// runSchedSteady measures the scheduler's overhead under steady cruising at
// the deployed operating point: the calm enclosure never pushes the thermal
// model near its ceiling, every decision holds the deployed mapping, and the
// draw multipliers are exactly 1.0 — so the online row must match the
// scheduler-off baseline to the bit.
func runSchedSteady(base core.Config, seed int64) (off, online *core.Report) {
	cfg := base
	cfg.Seed = seed
	cfg.Sched = false
	off = core.New(cfg, core.CruiseScenario(seed)).Run(schedSteadyDuration)
	cfg.Sched = true
	online = core.New(cfg, core.CruiseScenario(seed)).Run(schedSteadyDuration)
	return off, online
}

// runSchedMulticam compares three cameras run sequentially (no scheduler)
// against the scheduler's contention-aware batched placement (scene
// understanding on the batching-capable GPU amortizes the extra images at
// the marginal batch cost).
func runSchedMulticam(base core.Config, seed int64) (seq, batched *core.Report) {
	cfg := base
	cfg.Seed = seed
	cfg.Sched = false
	cfg.Cameras = 3
	seq = core.New(cfg, core.CruiseScenario(seed)).Run(schedSteadyDuration)
	cfg.Sched = true
	batched = core.New(cfg, core.CruiseScenario(seed)).Run(schedSteadyDuration)
	return seq, batched
}

// schedDynamic renders the dynamic-traffic mapping tables: the Fig. 6/8
// exploration redone online, plus the steady-load overhead and multi-camera
// batching checks. Every run starts from base.
func schedDynamic(base core.Config, seed int64, _ time.Duration, _ int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online scheduler — Fig. 6/8 regenerated under dynamic traffic (%v, ambient 45C)\n",
		schedDynamicDuration)
	fmt.Fprintf(&b, "  %-28s %-14s %-14s %-8s %-8s %-10s %s\n",
		"mapping strategy", "p50 percep", "p99 percep", "remaps", "op-sw", "rpr-swaps", "end state")
	for _, r := range runSchedDynamic(base, seed) {
		sc := r.report.Sched
		fmt.Fprintf(&b, "  %-28s %8.1f ms   %8.1f ms   %-8d %-8d %-10d %s quant=%v temp=%.1fC\n",
			r.name, r.p50(), r.p99(), sc.Remaps, sc.OpSwitches, sc.Swaps,
			sc.Mapping, sc.Quantized, sc.TempC)
	}

	off, online := runSchedSteady(base, seed)
	delta := 100 * (online.Perception.Quantile(0.5)/off.Perception.Quantile(0.5) - 1)
	fmt.Fprintf(&b, "steady cruise overhead (%v, ambient 25C): baseline p50=%.1f ms, online p50=%.1f ms (%+.2f%%)\n",
		schedSteadyDuration, off.Perception.Quantile(0.5), online.Perception.Quantile(0.5), delta)

	seq, batched := runSchedMulticam(base, seed)
	fmt.Fprintf(&b, "3-camera inference: sequential p50=%.1f ms p99=%.1f ms, scheduler-batched p50=%.1f ms p99=%.1f ms\n",
		seq.Perception.Quantile(0.5), seq.Perception.Quantile(0.99),
		batched.Perception.Quantile(0.5), batched.Perception.Quantile(0.99))
	return b.String()
}

// schedBenchJSON emits the machine-readable BENCH_sched.json content. The
// runs are virtual-time deterministic, so scripts/bench.sh sched --check can
// regenerate and exact-diff this output against the committed snapshot.
// Every run starts from base.
func schedBenchJSON(base core.Config, seed int64, _ time.Duration, _ int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"experiment\": \"sched_dynamic_traffic\",\n  \"seed\": %d,\n", seed)
	fmt.Fprintf(&b, "  \"dynamic\": {\n    \"scenario\": \"DynamicTrafficScenario ambient=45C dynamic-keyframe %s\",\n    \"rows\": [\n",
		schedDynamicDuration)
	rows := runSchedDynamic(base, seed)
	for i, r := range rows {
		sc := r.report.Sched
		fmt.Fprintf(&b, "      {\"name\": %q, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"remaps\": %d, \"op_switches\": %d, \"rpr_swaps\": %d, \"swap_ms\": %.3f, \"end_mapping\": %q, \"end_quant\": %v}",
			r.name, r.p50(), r.p99(), sc.Remaps, sc.OpSwitches, sc.Swaps,
			float64(sc.SwapTotal)/1e6, sc.Mapping, sc.Quantized)
		if i < len(rows)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("    ]\n  },\n")

	off, online := runSchedSteady(base, seed)
	bp, op := off.Perception.Quantile(0.5), online.Perception.Quantile(0.5)
	fmt.Fprintf(&b, "  \"steady\": {\"baseline_p50_ms\": %.3f, \"online_p50_ms\": %.3f, \"delta_pct\": %.3f},\n",
		bp, op, 100*(op/bp-1))

	seq, batched := runSchedMulticam(base, seed)
	fmt.Fprintf(&b, "  \"multicam\": {\"cameras\": 3, \"sequential_p99_ms\": %.3f, \"batched_p99_ms\": %.3f}\n",
		seq.Perception.Quantile(0.99), batched.Perception.Quantile(0.99))
	b.WriteString("}\n")
	return b.String()
}
