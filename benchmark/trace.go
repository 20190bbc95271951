package main

import (
	"fmt"
	"math"
	"time"
)

// pass is one run of slice 0 on a fresh instance.
type pass struct {
	acc    *accum
	setup  map[string]float64 // constructor durations setUp reported, ms
	speed  float64            // compute host speed around the slice
	digest uint64
}

// work is the slice's work time as measured (what work_per_s divides by).
func (p *pass) work() time.Duration { return p.acc.cur.busy }

// rate is the slice's throughput as measured.
func (p *pass) rate() float64 { return p.acc.cur.work / p.work().Seconds() }

// tracedRun is what the layer attribution works from: slice 0 repeated with
// and without the span recorder.
type tracedRun struct {
	untraced  *pass     // the fastest untraced pass
	rec       *recorder // the spans of the fastest traced pass
	tracedAcc *accum    // and what it accumulated
	// partsUS holds, per untraced pass, the durations of the operations that
	// make up the work time; workUS is their position-by-position fastest sum.
	partsUS [][]float64
	workUS  float64
	// What the probes have timed so far, merged over rounds: the faster
	// sample of every call of the single-vehicle replay, and the per-epoch
	// milliseconds of every run of the fleet's advance probe.
	rounds     int
	vehicle    vehicleProbes
	advancesMS [][]float64
}

// runSlice0 sets the workload up afresh and runs slice 0.
func runSlice0(w workload, rec *recorder) (*pass, error) {
	setup, err := w.setUp()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	acc := newAccum(1 << 14)
	_, n0 := allocNow(true)
	before := measureHostSpeed(false)
	if err := w.slice(0, rec, acc); err != nil {
		return nil, fmt.Errorf("%s: slice 0: %w", w.name(), err)
	}
	speed := between(before, measureHostSpeed(false)).compute
	if acc.cur.mallocs == 0 {
		_, n1 := allocNow(false)
		acc.cur.mallocs = n1 - n0
	}
	return &pass{acc: acc, setup: setup, speed: speed, digest: w.digest()}, nil
}

// tracePass is the traced run of one workload: rounds of an untraced slice
// 0, a traced slice 0 (each on a fresh instance) and the layer probes, for
// the time budget.
//
// Slice 0 is the same sequence of operations every time, and a disturbance
// of the host only ever adds time. So the traced run compares repetitions
// position by position and keeps the fastest sample of each (fastest, in
// probes.go): the tracing overhead is the fastest traced over the fastest
// untraced composite, the layer shares are fastest probe composites over the
// fastest untraced one, and the latency figures describe the fastest
// untraced pass. With a handful of repetitions, medians mostly report the
// host.
func tracePass(p params, w workload, seconds float64) (*workloadResult, *recorder, error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := now()
	var run tracedRun
	var traced *pass
	var tracedParts [][]float64
	var tput, speeds []float64
	res := &workloadResult{Name: w.name(), Config: w.config()}
	failed := newAccum(0) // failed checks of both passes, by name
	for n := 0; n == 0 || since(start) < budget; n++ {
		u, err := runSlice0(w, nil)
		if err != nil {
			return nil, nil, err
		}
		rec := newRecorder(w.name())
		t, err := runSlice0(w, rec)
		if err != nil {
			return nil, nil, err
		}
		tput = append(tput, u.rate()/u.speed)
		speeds = append(speeds, u.speed)
		if u.digest != t.digest {
			failed.fail("traced_digest_mismatch", 1)
		}
		res.Ops += u.acc.ops + t.acc.ops
		for _, a := range []*accum{u.acc, t.acc} {
			for _, k := range sortedKeys(a.failures) {
				failed.fail(k, a.failures[k])
			}
		}
		run.partsUS = append(run.partsUS, u.acc.cur.partsUS)
		tracedParts = append(tracedParts, t.acc.cur.partsUS)
		if run.untraced == nil || u.work() < run.untraced.work() {
			run.untraced = u
		}
		if traced == nil || t.work() < traced.work() {
			traced, run.rec, run.tracedAcc = t, rec, t.acc
		}
		if err := w.probe(&run); err != nil {
			return nil, nil, fmt.Errorf("%s: layer probes: %w", w.name(), err)
		}
		run.rounds++
		res.Slices += 2
	}
	res.OpsFailed = failed.failed
	res.Failures = failed.failureNames()
	res.Correct = res.OpsFailed == 0 && res.Ops > 0
	run.workUS = fastest(run.partsUS)

	m := map[string]float64{}
	if err := w.layers(&run, m); err != nil {
		return nil, nil, fmt.Errorf("%s: layer metrics: %w", w.name(), err)
	}
	m["bench.trace_overhead_pct"] = 100 * (fastest(tracedParts)/run.workUS - 1)
	res.HostSpeed = median(speeds)
	m["bench.host_speed"] = res.HostSpeed
	m["bench.slice_iqr_pct"] = 100 * iqrShare(tput)
	m["parallel.workers"] = float64(p.workers)

	res.PerLayer = make(map[string]value, len(perLayerDefs))
	for _, d := range perLayerDefs {
		if v := m[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: %s is %v", w.name(), d.Name, v)
		}
		res.PerLayer[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		return nil, nil, fmt.Errorf("%s: layer metrics not in the table: %v", w.name(), sortedKeys(m))
	}
	return res, run.rec, nil
}

// first returns the first sample of a named series (slice 0's), or 0.
func (a *accum) first(name string) float64 {
	if s := a.series[name]; len(s) > 0 {
		return s[0]
	}
	return 0
}

// layers attributes the single-vehicle loop: natives from the untraced
// pass, span totals from the traced one, and the probes replayed over the
// traced pass's own per-cycle trace.
func (v *vehicleLoad) layers(tr *tracedRun, m map[string]float64) error {
	u, rec := tr.untraced, tr.rec
	ops := sortedCopy(u.acc.opUS)
	m["core.cycles_per_s"] = u.rate()
	m["core.period_us_p50"], _ = quantile(ops, 0.50)
	m["core.period_us_p90"], _ = quantile(ops, 0.90)
	m["core.period_us_p99"], _ = quantile(ops, 0.99)
	m["core.tcomp_ms_mean"] = mean(u.acc.series["tcomp_ms_mean"])
	m["core.tcomp_ms_p99"] = mean(u.acc.series["tcomp_ms_p99"])
	m["core.tcomp_err_vs_paper_pct"] = 100 * (m["core.tcomp_ms_mean"] - 164) / 164
	m["core.cycles"] = u.acc.counts["cycles"]
	m["core.commands_delivered"] = u.acc.counts["delivered"]
	m["core.blocked_cycles"] = u.acc.counts["blocked"]
	m["core.advance_busy_ms"], _ = rec.total("core.advance")
	m["core.finish_ms"], _ = rec.total("core.finish")
	m["core.allocs_per_cycle"] = float64(u.acc.cur.mallocs) / u.acc.counts["cycles"]
	m["world.build_ms"] = median(tr.tracedAcc.series["world_build_ms"])
	m["core.new_ms"] = median(tr.tracedAcc.series["core_new_ms"])
	m["sched.remaps"] = u.acc.counts["sched_remaps"]
	m["sched.op_switches"] = u.acc.counts["sched_op_switches"]
	m["obs.trace_bytes"] = u.acc.counts["trace_bytes"]

	closeUS := 0.0
	if v.traffic {
		// Closing the sinks (sorting and writing the spans, the registry
		// exposition) is observability work too; Finish itself is microseconds.
		closeUS = m["core.finish_ms"] * 1e3
	}
	tr.vehicle.metrics(tr.workUS, closeUS, m)
	return nil
}

// probe replays the last traced slice's own segments through every layer's
// entry point.
func (v *vehicleLoad) probe(tr *tracedRun) error {
	var p vehicleProbes
	for _, seg := range v.kept {
		if err := p.replay(seg, v.traffic); err != nil {
			return err
		}
	}
	if tr.rounds == 0 {
		tr.vehicle = p
	} else {
		tr.vehicle.keepFaster(&p)
	}
	return nil
}

// probe advances the fleet's vehicles outside the fleet once more.
func (l *fleetLoad) probe(tr *tracedRun) error {
	cfg := l.fleetConfig()
	tr.advancesMS = append(tr.advancesMS, advanceProbe(cfg.Vehicle, l.p.seed, l.vehicles, fleetWarmEpochs, l.epochs, cfg.Epoch))
	return nil
}

// probe does nothing: the store's layers are read off the spans and its own
// counters, and the one probe below them is cheap enough to run once.
func (l *storeLoad) probe(*tracedRun) error { return nil }

// layers attributes the fleet epoch. Step is one call from outside, so the
// split comes from what can be rebuilt beside it: the same vehicles advanced
// without a fleet, the gap between perception and plain epochs, and the
// shard-sized batch forward; the barrier is the remainder.
func (l *fleetLoad) layers(tr *tracedRun, m map[string]float64) error {
	u := tr.untraced
	cfg := l.fleetConfig()
	epochs := sortedCopy(u.acc.opUS)
	m["fleet.veh_s_per_s"] = u.rate()
	p50, _ := quantile(epochs, 0.50)
	p90, _ := quantile(epochs, 0.90)
	p99, _ := quantile(epochs, 0.99)
	m["fleet.epoch_ms_p50"], m["fleet.epoch_ms_p90"], m["fleet.epoch_ms_p99"] = p50/1e3, p90/1e3, p99/1e3
	m["fleet.step_busy_ms"], _ = tr.rec.total("fleet.step")
	m["fleet.new_ms"] = u.setup["fleet.new_ms"]
	m["fleet.allocs_per_epoch"] = float64(u.acc.cur.mallocs) / float64(l.epochs)
	m["fleet.trips_completed"] = u.acc.counts["trips_completed"]
	m["fleet.halted"] = u.acc.counts["halted"]
	m["fleet.cloud_events"] = u.acc.counts["cloud_events"]
	m["telemetry.write_amp"] = u.acc.counts["write_amp"]

	// One perception period is PerceptionEvery epochs: all of them advance
	// the vehicles and run the barrier, one adds the batched detector. Epoch
	// by epoch, take the fastest Step over the untraced passes and the
	// fastest advance over the runs of the probe.
	var plain, perc, adv []float64
	for e := 0; e < l.epochs; e++ {
		step := fastestAt(tr.partsUS, e) / 1e3
		adv = append(adv, fastestAt(tr.advancesMS, e))
		// Slice 0 starts after the warm-up epochs, so this is epoch e+1+warm.
		if (fleetWarmEpochs+e+1)%cfg.PerceptionEvery == 0 {
			perc = append(perc, step)
		} else {
			plain = append(plain, step)
		}
	}
	pl, pc, ad := mean(plain), mean(perc), mean(adv)
	if pc < pl {
		pc = pl
	}
	if ad > pl {
		ad = pl // the probe cannot cost more than the epoch it is part of
	}
	k := float64(cfg.PerceptionEvery)
	period := (k-1)*pl + pc
	m["fleet.advance_share"] = k * ad / period
	m["fleet.perception_share"] = (pc - pl) / period
	m["fleet.barrier_share"] = k * (pl - ad) / period
	m["bench.attributed_share"] = m["fleet.advance_share"] + m["fleet.perception_share"]
	// The estimated shares below are isolated call cost × call count, spread
	// over W workers, against the fastest composite slice.
	work, w := tr.workUS/1e6, float64(l.p.workers)

	m["parallel.for_call_us"], m["parallel.allocs_per_for"] = forProbe(l.vehicles, 8, 2000)
	shardLen := (l.vehicles + cfg.Shards - 1) / cfg.Shards
	m["nn.batch_call_us"] = batchProbe(l.p.seed, shardLen, 40)
	m["nn.share"] = float64(cfg.Shards*len(perc)) * m["nn.batch_call_us"] / 1e6 / w / work

	// Inside the advance: every vehicle plans once per control cycle and
	// swaps the front-end bitstream on 2 of every KeyframeEvery cycles.
	cycles := float64(l.vehicles*l.epochs) * cfg.Vehicle.ControlRate * cfg.Epoch.Seconds()
	m["core.cycles"] = cycles
	m["planning.plans"] = cycles
	m["planning.plan_call_us_p50"] = planProbe(1000)
	m["planning.busy_ms"] = cycles * m["planning.plan_call_us_p50"] / 1e3
	m["planning.share"] = m["planning.busy_ms"] / 1e3 / w / work
	m["rpr.swaps"] = cycles * 2 / float64(cfg.Vehicle.KeyframeEvery)
	m["rpr.hits"] = cycles - m["rpr.swaps"]
	m["rpr.transfer_call_us"] = swapProbe(100)
	m["rpr.busy_ms"] = m["rpr.swaps"] * m["rpr.transfer_call_us"] / 1e3
	m["rpr.share"] = m["rpr.busy_ms"] / 1e3 / w / work
	return nil
}

// layers attributes the store: the spans cover every call, the store's own
// Stats give the work counts, and the compression probe gives the layer
// below it.
func (l *storeLoad) layers(tr *tracedRun, m map[string]float64) error {
	u, rec := tr.untraced, tr.rec
	a := u.acc
	gets := sortedCopy(a.opUS)
	m["telemetry.ingest_events_per_s"] = u.rate()
	m["telemetry.get_us_p50"], _ = quantile(gets, 0.50)
	m["telemetry.get_us_p90"], _ = quantile(gets, 0.90)
	m["telemetry.get_us_p99"], _ = quantile(gets, 0.99)
	m["telemetry.scan_rows_per_s"] = a.first("scan_rows_per_s")
	m["telemetry.kind_rows_per_s"] = a.first("kind_rows_per_s")
	m["telemetry.write_amp"] = a.first("write_amp")
	m["telemetry.open_ms"] = u.setup["telemetry.open_ms"]
	batches := sortedCopy(a.cur.partsUS)
	m["telemetry.ingest_busy_ms"] = a.first("ingest_busy_ms")
	p50, _ := quantile(batches, 0.50)
	p99, _ := quantile(batches, 0.99)
	m["telemetry.ingest_batch_ms_p50"], m["telemetry.ingest_batch_ms_p99"] = p50/1e3, p99/1e3
	m["telemetry.flushes"] = a.first("flushes")
	m["telemetry.compactions"] = a.first("compactions")
	m["telemetry.wal_bytes"] = a.first("wal_bytes")
	m["telemetry.run_bytes_written"] = a.first("run_bytes_written")
	m["telemetry.space_amp"] = a.first("space_amp")
	m["telemetry.close_ms"] = a.first("close_ms")
	m["telemetry.reopen_ms"] = a.first("reopen_ms")
	m["telemetry.get_busy_ms"] = a.first("get_busy_ms")
	m["telemetry.scan_busy_ms"] = a.first("scan_busy_ms")
	m["telemetry.kind_busy_ms"] = a.first("kind_busy_ms")
	m["telemetry.kind_ms_p50"] = median(a.series["kind_ms"])
	m["telemetry.bloom_skips"] = a.first("bloom_skips")
	m["telemetry.runs"] = a.first("runs")
	m["telemetry.index_entries"] = a.first("index_entries")
	// Kind queries resolve each hit with a point read, so blocks per read
	// counts them with the Gets.
	if reads := a.first("gets") + a.first("kind_rows"); reads > 0 {
		m["telemetry.blocks_per_get"] = a.first("point_blocks_read") / reads
	}
	if rb := a.first("result_bytes"); rb > 0 {
		m["telemetry.read_amp"] = a.first("run_bytes_read") / rb
	}

	cus, dus, stored, err := blockProbe(newGenerator(l.p.seed, 0, l.vehicles), 50, 8, a.first("heap_mb"))
	if err != nil {
		return err
	}
	m["cloud.compress_call_us"], m["cloud.decompress_call_us"] = cus, dus
	if stored > 0 {
		blocks := a.first("run_bytes_written") / stored
		m["cloud.compress_share"] = blocks * cus / tr.workUS
	}

	// Everything the slice does is a timed store call; what the spans do not
	// cover is the generator and the oracle.
	covered := 0.0
	for _, s := range rec.summarize() {
		if s.Name != "slice" {
			covered += s.TotalMs
		}
	}
	if total, _ := rec.total("slice"); total > 0 {
		m["bench.attributed_share"] = covered / total
	}
	return nil
}
