package main

// metricDef describes one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (a test holds the two
// together); -check uses Class to decide how two result files compare.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Class is "host" (wall-clock dependent, compared under a bound),
	// "virtual" or "count" (a pure function of the seed, compared exactly),
	// or "qualifier" (describes the measurement itself, never compared).
	Class string
	Doc   string
}

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off. Every one is defined on every workload; the README's table
// says what the workload-relative ones mean on each. The four host-time ones
// are reported at reference host speed (see ref.go).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host", "median of three complete set-ups: worlds, core.New / fleet.New / telemetry.Open, and a short warm-up"},
	{"work_per_s", "1/s", "higher", 0.25, "host", "median over slices of work per second: control cycles (cruise, traffic), vehicle-seconds of virtual time (fleet), events inside Store.Ingest (telemetry)"},
	{"op_us_p50", "us", "lower", 0.25, "host", "median latency of the primary operation: AdvanceTo one control period (cruise, traffic), Fleet.Step (fleet), Store.Get (telemetry)"},
	{"op_us_p90", "us", "lower", 0.25, "host", "90th percentile of the same; the highest percentile with at least 10 samples beyond it on every workload"},
	{"alloc_mb", "MB", "lower", 0.10, "host", "mean over slices of MemStats.TotalAlloc growth per slice of fixed work"},
}

// perLayerDefs are reported by the traced pass (--trace 1). A metric a
// workload does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	// The issue's per-workload end-to-end names, measured on the fixed
	// slice 0 with tracing off.
	{"core.cycles_per_s", "1/s", "higher", 0, "host", "control cycles simulated per host second (cruise, traffic)"},
	{"core.period_us_p50", "us", "lower", 0, "host", "host time per AdvanceTo(one control period), median"},
	{"core.period_us_p90", "us", "lower", 0, "host", "same, 90th percentile: the swap cycles on cruise"},
	{"core.period_us_p99", "us", "lower", 0, "host", "same, 99th percentile"},
	{"core.tcomp_ms_mean", "ms", "lower", 0, "virtual", "virtual computing latency T_comp of the modelled vehicle, mean (paper: 164 ms)"},
	{"core.tcomp_ms_p99", "ms", "lower", 0, "virtual", "virtual T_comp, mean over segments of the per-segment 99th percentile"},
	{"core.tcomp_err_vs_paper_pct", "%", "lower", 0, "virtual", "100 × (tcomp_ms_mean − 164) / 164"},
	{"fleet.veh_s_per_s", "1/s", "higher", 0, "host", "vehicle-seconds of virtual time per host second"},
	{"fleet.epoch_ms_p50", "ms", "lower", 0, "host", "host time per Fleet.Step, median"},
	{"fleet.epoch_ms_p90", "ms", "lower", 0, "host", "same, 90th percentile: the perception epochs"},
	{"fleet.epoch_ms_p99", "ms", "lower", 0, "host", "same, 99th percentile"},
	{"telemetry.ingest_events_per_s", "1/s", "higher", 0, "host", "events per second of time spent inside Store.Ingest"},
	{"telemetry.get_us_p50", "us", "lower", 0, "host", "Store.Get latency, median"},
	{"telemetry.get_us_p90", "us", "lower", 0, "host", "Store.Get latency, 90th percentile"},
	{"telemetry.get_us_p99", "us", "lower", 0, "host", "Store.Get latency, 99th percentile"},
	{"telemetry.scan_rows_per_s", "1/s", "higher", 0, "host", "rows per second inside Store.Scan"},
	{"telemetry.kind_rows_per_s", "1/s", "higher", 0, "host", "rows per second inside Store.ScanByKind"},
	{"telemetry.write_amp", "ratio", "lower", 0, "virtual", "(WAL + run bytes written) / user bytes"},

	// rpr
	{"rpr.swaps", "count", "lower", 0, "count", "bitstream swaps in slice 0 (each runs the Transfer cycle model)"},
	{"rpr.hits", "count", "higher", 0, "count", "Require calls that found the bitstream resident"},
	{"rpr.transfer_call_us", "us", "lower", 0, "host", "host time per swapping Manager.Require"},
	{"rpr.busy_ms", "ms", "lower", 0, "host", "host time in Manager.Require over slice 0"},
	{"rpr.share", "ratio", "lower", 0, "host", "rpr.busy_ms / slice-0 work time"},
	{"rpr.sim_cycles_per_mib", "count", "lower", 0, "virtual", "modelled configuration-clock cycles per MiB of bitstream"},
	{"rpr.swap_virtual_ms", "ms", "lower", 0, "virtual", "virtual duration of one feature-extract swap (paper: < 3 ms)"},
	// planning
	{"planning.plans", "count", "lower", 0, "count", "MPC.Plan calls in slice 0"},
	{"planning.plan_call_us_p50", "us", "lower", 0, "host", "host time per MPC.Plan, median"},
	{"planning.plan_call_us_p90", "us", "lower", 0, "host", "same, 90th percentile"},
	{"planning.busy_ms", "ms", "lower", 0, "host", "host time in MPC.Plan over slice 0"},
	{"planning.share", "ratio", "lower", 0, "host", "planning.busy_ms / slice-0 work time"},
	// perception stand-ins
	{"sensors.radar_scans", "count", "lower", 0, "count", "RadarRig.ScanAllInto sweeps in slice 0, control and reactive path"},
	{"sensors.scan_call_us", "us", "lower", 0, "host", "host time per RadarRig.ScanAllInto"},
	{"sensors.share", "ratio", "lower", 0, "host", "radar scans plus reactive radar/sonar sector queries / slice-0 work time"},
	{"detect.call_us", "us", "lower", 0, "host", "host time per Detector.DetectInto"},
	{"detect.share", "ratio", "lower", 0, "host", "DetectInto busy / slice-0 work time"},
	{"track.call_us", "us", "lower", 0, "host", "host time per RadarTracker.ObserveInto"},
	{"track.share", "ratio", "lower", 0, "host", "ObserveInto busy / slice-0 work time"},
	{"fusion.call_us", "us", "lower", 0, "host", "host time per SpatialSyncInto + FuseAllInto"},
	{"fusion.share", "ratio", "lower", 0, "host", "fusion busy / slice-0 work time"},
	// actuation chain and engine
	{"vehicle.steps", "count", "lower", 0, "count", "Vehicle.Step calls in slice 0"},
	{"vehicle.step_call_us", "us", "lower", 0, "host", "host time per Vehicle.Step"},
	{"vehicle.share", "ratio", "lower", 0, "host", "Vehicle.Step busy / slice-0 work time"},
	{"canbus.frames", "count", "lower", 0, "count", "command frames encoded and received in slice 0"},
	{"canbus.encode_call_us", "us", "lower", 0, "host", "host time per EncodeCommand + ECU.Receive"},
	{"canbus.share", "ratio", "lower", 0, "host", "CAN encode/receive busy / slice-0 work time"},
	{"sim.events", "count", "lower", 0, "count", "engine events scheduled and dispatched in slice 0"},
	{"sim.event_call_us", "us", "lower", 0, "host", "host time per sim.Engine event with an empty handler"},
	{"sim.share", "ratio", "lower", 0, "host", "event scheduling busy / slice-0 work time"},
	{"world.complexity_call_us", "us", "lower", 0, "host", "host time per World.SceneComplexity"},
	{"world.share", "ratio", "lower", 0, "host", "SceneComplexity plus per-physics-step obstacle kinematics / slice-0 work time"},
	// scheduler and observability (traffic only)
	{"sched.cycle_call_us", "us", "lower", 0, "host", "host time per BeginCycle + Observe"},
	{"sched.share", "ratio", "lower", 0, "host", "scheduler busy / slice-0 work time"},
	{"sched.remaps", "count", "lower", 0, "count", "task remappings the scheduler made in slice 0"},
	{"sched.op_switches", "count", "lower", 0, "count", "quant/float operating-point switches in slice 0"},
	{"obs.record_call_us", "us", "lower", 0, "host", "host time per cycle of trace, span, flight-recorder and registry records"},
	{"obs.share", "ratio", "lower", 0, "host", "observability record busy / slice-0 work time"},
	{"obs.trace_bytes", "count", "lower", 0, "count", "bytes the attached sinks wrote in slice 0"},
	// set-up layers
	{"world.build_ms", "ms", "lower", 0, "host", "host time to build one scenario world, median"},
	{"core.new_ms", "ms", "lower", 0, "host", "host time per core.New with sinks attached, median"},
	{"fleet.new_ms", "ms", "lower", 0, "host", "host time of fleet.New"},
	{"telemetry.open_ms", "ms", "lower", 0, "host", "host time of telemetry.Open on an empty directory"},
	// core
	{"core.cycles", "count", "higher", 0, "count", "control cycles in slice 0"},
	{"core.commands_delivered", "count", "higher", 0, "count", "commands the ECU accepted in slice 0"},
	{"core.blocked_cycles", "count", "lower", 0, "count", "cycles where the planner found no feasible trajectory"},
	{"core.advance_busy_ms", "ms", "lower", 0, "host", "summed core.advance spans of the traced slice 0"},
	{"core.finish_ms", "ms", "lower", 0, "host", "summed core.finish spans (Finish plus closing the sinks)"},
	{"core.allocs_per_cycle", "count", "lower", 0, "host", "heap allocations per control cycle, untraced slice 0"},
	{"core.self_share", "ratio", "lower", 0, "host", "1 − Σ layer shares: core's own glue and the latency draw"},
	// parallel, fleet, nn
	{"parallel.workers", "count", "higher", 0, "qualifier", "worker count W the multi-core workloads ran with"},
	{"parallel.for_call_us", "us", "lower", 0, "host", "host time per parallel.For over a fleet-sized range with an empty body"},
	{"parallel.allocs_per_for", "count", "lower", 0, "host", "heap allocations per such parallel.For"},
	{"fleet.step_busy_ms", "ms", "lower", 0, "host", "summed fleet.step spans of the traced slice 0"},
	{"fleet.advance_share", "ratio", "lower", 0, "host", "advancing the same vehicles outside the fleet / slice-0 work time"},
	{"fleet.perception_share", "ratio", "lower", 0, "host", "median gap between perception and plain epochs, spread over the perception period / median epoch"},
	{"fleet.barrier_share", "ratio", "lower", 0, "host", "1 − advance_share − perception_share: settle, demand, dispatch, metrics, trace, cloud emission"},
	{"fleet.allocs_per_epoch", "count", "lower", 0, "host", "heap allocations per Fleet.Step, untraced slice 0"},
	{"fleet.trips_completed", "count", "higher", 0, "count", "trips completed by the end of slice 0"},
	{"fleet.halted", "count", "lower", 0, "count", "vehicles halted by the end of slice 0"},
	{"fleet.cloud_events", "count", "higher", 0, "count", "events the barrier ingested into the store during slice 0"},
	{"nn.batch_call_us", "us", "lower", 0, "host", "host time per shard-sized RunQuantCNNBatch"},
	{"nn.share", "ratio", "lower", 0, "host", "shard batches per slice × batch_call_us / W / slice-0 work time"},
	// telemetry write side
	{"telemetry.ingest_busy_ms", "ms", "lower", 0, "host", "host time inside Store.Ingest over slice 0"},
	{"telemetry.ingest_batch_ms_p50", "ms", "lower", 0, "host", "host time per Ingest batch, median"},
	{"telemetry.ingest_batch_ms_p99", "ms", "lower", 0, "host", "same, 99th percentile: flush and compaction stalls"},
	{"telemetry.flushes", "count", "lower", 0, "count", "memtable flushes in slice 0"},
	{"telemetry.compactions", "count", "lower", 0, "count", "compactions in slice 0"},
	{"telemetry.wal_bytes", "count", "lower", 0, "count", "bytes appended to the WAL"},
	{"telemetry.run_bytes_written", "count", "lower", 0, "count", "bytes written to run files, flush plus compaction"},
	{"telemetry.space_amp", "ratio", "lower", 0, "virtual", "run bytes on disk after the final flush / user bytes"},
	{"telemetry.close_ms", "ms", "lower", 0, "host", "host time of Store.Close"},
	{"telemetry.reopen_ms", "ms", "lower", 0, "host", "host time of reopening the closed store"},
	{"cloud.compress_call_us", "us", "lower", 0, "host", "host time per cloud.Compress of a representative 4 KB block"},
	{"cloud.compress_share", "ratio", "lower", 0, "host", "estimated blocks written × compress_call_us / ingest busy"},
	// telemetry read side
	{"telemetry.get_busy_ms", "ms", "lower", 0, "host", "host time inside Store.Get over slice 0"},
	{"telemetry.blocks_per_get", "ratio", "lower", 0, "virtual", "data blocks read per point read, all read paths"},
	{"telemetry.bloom_skips", "count", "higher", 0, "count", "point reads a bloom filter short-circuited"},
	{"telemetry.runs", "count", "lower", 0, "count", "live runs after the final flush"},
	{"telemetry.read_amp", "ratio", "lower", 0, "virtual", "run bytes read / result bytes, all reads of slice 0"},
	{"telemetry.scan_busy_ms", "ms", "lower", 0, "host", "host time inside Store.Scan over slice 0"},
	{"telemetry.kind_busy_ms", "ms", "lower", 0, "host", "host time inside Store.ScanByKind over slice 0"},
	{"telemetry.kind_ms_p50", "ms", "lower", 0, "host", "host time per ScanByKind, median"},
	{"telemetry.index_entries", "count", "lower", 0, "count", "secondary-index entries before the final flush"},
	{"cloud.decompress_call_us", "us", "lower", 0, "host", "host time per cloud.Decompress of a representative block"},
	// qualifiers
	{"bench.trace_overhead_pct", "%", "lower", 0, "qualifier", "100 × (traced − untraced) / untraced slice-0 work time, median over pairs"},
	{"bench.host_speed", "ratio", "higher", 0, "qualifier", "reference-kernel speed of the host around the untraced slice 0 (1.0 = nominal); per-layer figures are as measured, not scaled by it"},
	{"bench.slice_iqr_pct", "%", "lower", 0, "qualifier", "interquartile range of slice throughput as a share of its median"},
	{"bench.attributed_share", "ratio", "higher", 0, "qualifier", "share of slice-0 work time the layer metrics account for"},
}
