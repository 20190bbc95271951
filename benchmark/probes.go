package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"time"

	"sov/internal/canbus"
	"sov/internal/cloud"
	"sov/internal/core"
	"sov/internal/detect"
	"sov/internal/fusion"
	"sov/internal/mathx"
	"sov/internal/nn"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/planning"
	"sov/internal/rpr"
	"sov/internal/sched"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/telemetry"
	"sov/internal/track"
	"sov/internal/vehicle"
	"sov/internal/world"
)

// Probes attribute time to the layers below core, fleet and telemetry from
// outside: after a traced slice, each layer's public entry point is called
// again on the per-cycle state the slice itself recorded, and timed. No
// program code is instrumented; in-program spans are a later change.

// probe holds the timed calls of one layer, in call order, as microseconds
// with the timer's own cost removed.
type probe struct {
	us []float64
}

// timerCost is what one time.Now/time.Since pair costs; it is subtracted
// from every probed call so sub-microsecond layers are not all timer.
var timerCost = calibrateTimer()

func calibrateTimer() time.Duration {
	ds := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		a := now()
		ds = append(ds, float64(since(a)))
	}
	return time.Duration(median(ds))
}

// add records one call that took d including the timer pair.
func (p *probe) add(d time.Duration) {
	d -= timerCost
	if d < 0 {
		d = 0
	}
	p.us = append(p.us, micros(d))
}

func (p *probe) calls() int { return len(p.us) }

func (p *probe) busyMs() float64 { return sum(p.us) / 1e3 }

func (p *probe) callUS() float64 { return mean(p.us) }

// keepFaster merges another replay of the same calls into p, keeping the
// faster of each pair: a disturbance only ever adds time, so the faster
// sample is the better estimate of what the call costs.
func (p *probe) keepFaster(q *probe) {
	for i := range p.us {
		if i < len(q.us) && q.us[i] < p.us[i] {
			p.us[i] = q.us[i]
		}
	}
}

// fastestAt is the fastest sample of position k across repetitions of the
// same sequence of operations (0 when no repetition reaches k).
func fastestAt(reps [][]float64, k int) float64 {
	best, found := 0.0, false
	for _, r := range reps {
		if k < len(r) && (!found || r[k] < best) {
			best, found = r[k], true
		}
	}
	return best
}

// fastest sums fastestAt over the positions of the first repetition.
func fastest(reps [][]float64) float64 {
	total := 0.0
	if len(reps) > 0 {
		for k := range reps[0] {
			total += fastestAt(reps, k)
		}
	}
	return total
}

// vehicleProbes holds one probe per layer of the single-vehicle loop.
type vehicleProbes struct {
	world, worldAt, sched, rpr, rprSwap, scan, reactive, detect, track, fusion,
	planning, canbus, vehicle, sim, obs probe
	swaps, hits int
	simEvents   int
	simCycles   int64
	simBytes    int64
	swapVirtual time.Duration
}

// all lists every probe, attributed is the ones whose time adds up to the
// loop's (rprSwap is a subset of rpr).
func (vp *vehicleProbes) all() []*probe { return append(vp.attributed(), &vp.rprSwap) }

func (vp *vehicleProbes) attributed() []*probe {
	return []*probe{&vp.rpr, &vp.planning, &vp.scan, &vp.reactive, &vp.detect, &vp.track, &vp.fusion,
		&vp.vehicle, &vp.canbus, &vp.sim, &vp.world, &vp.worldAt, &vp.sched, &vp.obs}
}

// keepFaster merges another replay of the same segments into vp.
func (vp *vehicleProbes) keepFaster(other *vehicleProbes) {
	mine, theirs := vp.all(), other.all()
	for i := range mine {
		mine[i].keepFaster(theirs[i])
	}
}

// parseTrace decodes a slice's own per-cycle JSONL trace.
func parseTrace(b []byte) ([]core.TraceRecord, error) {
	var out []core.TraceRecord
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var r core.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// replay runs every layer's entry point once per recorded control cycle of
// one segment, in the order the control loop calls them, with fresh
// component instances over the segment's own world.
func (vp *vehicleProbes) replay(seg keptSegment, withSinks bool) error {
	var err error
	recs, cfg, w := seg.recs, seg.cfg, seg.world
	rng := sim.NewRNG(cfg.Seed)
	lane := w.Lanes[0]
	laneDir := lane.Direction()
	laneAngle := laneDir.Angle()
	normal := mathx.Vec2{X: -laneDir.Y, Y: laneDir.X}

	det := detect.New(cfg.Detector, w, rng.Fork())
	radar := sensors.NewRadarRig(w, rng.Fork())
	sonar := sensors.NewSonarRig(w, rng.Fork())
	tracker := track.NewRadarTracker()
	mpc := planning.NewMPC(planning.DefaultMPCConfig())
	mgr := rpr.NewManager()
	veh := vehicle.New(cfg.Vehicle, vehicle.State{Pos: lane.Start, Heading: laneAngle, Speed: cfg.TargetSpeed})
	ecu := vehicle.NewECU(veh)
	var sch *sched.Scheduler
	if cfg.Sched {
		sc := sched.DefaultConfig()
		sc.ControlRate = cfg.ControlRate
		sc.Cameras = cfg.Cameras
		sc.AmbientC = cfg.AmbientC
		if sch, err = sched.New(sc); err != nil {
			return err
		}
	}
	var tracer *core.Tracer
	var spans *obs.SpanWriter
	var box *obs.FlightRecorder
	var cycles *obs.Counter
	var hist [3]*obs.Histogram
	if withSinks {
		sink := newHashWriter()
		tracer = core.NewTracer(sink)
		spans = obs.NewSpanWriter(sink)
		box = obs.NewFlightRecorder(sink, 64, 3)
		reg := obs.NewRegistry()
		cycles = reg.Counter("probe_cycles_total", "probe", obs.ClassVirtual)
		for i := range hist {
			hist[i] = reg.Histogram("probe_hist_"+string(rune('a'+i)), "probe", obs.ClassVirtual, 0, 800, 40)
		}
	}

	physDt := time.Duration(float64(time.Second) / cfg.PhysicsRate)
	physPerCycle := int(cfg.PhysicsRate / cfg.ControlRate)
	reactDt := time.Duration(float64(time.Second) / cfg.ReactiveRate)
	reactPerCycle := int(cfg.ReactiveRate / cfg.ControlRate)

	var rig []sensors.RigReturn
	var returns []sensors.RadarReturn
	var dets []detect.Object
	var tracks []track.RadarTrack
	var fused []fusion.FusedObject
	var obstacles []planning.Obstacle
	var syncScratch fusion.SyncScratch
	syncCfg := fusion.DefaultSpatialSyncConfig()

	for _, r := range recs {
		t := time.Duration(r.TimeMs * float64(time.Millisecond))
		pose := world.Pose{Pos: mathx.Vec2{X: r.PosX, Y: r.PosY}, Heading: laneAngle}

		a := now()
		complexity := w.SceneComplexity(pose, t)
		vp.world.add(since(a))

		keyframe := cfg.KeyframeEvery > 0 && r.Cycle%cfg.KeyframeEvery == 0
		if cfg.DynamicKeyframe && complexity >= 0.6 {
			keyframe = true
		}
		bs := rpr.BitstreamFeatureTrack
		if keyframe {
			bs = rpr.BitstreamFeatureExtract
		}
		if sch != nil {
			// The trace keeps perception as one number; the split below only
			// has to give the scheduler's EWMAs plausible inputs.
			perc := time.Duration(r.PerceptionMs * float64(time.Millisecond))
			a = now()
			sch.BeginCycle(0.9, keyframe)
			sch.Observe(perc*4/10, perc/2, perc/10, perc*3/10, false)
			vp.sched.add(since(a))
			bs = sch.FrontEnd()
		}
		if cfg.RPREnabled {
			a = now()
			res := mgr.Require(bs)
			d := since(a)
			vp.rpr.add(d)
			if res.Bytes > 0 {
				vp.rprSwap.add(d)
				vp.simCycles += res.Cycles
				vp.simBytes += int64(res.Bytes)
				if bs.Name == rpr.BitstreamFeatureExtract.Name {
					vp.swapVirtual = res.Duration
				}
				if sch != nil {
					sch.NoteSwap(res.Duration)
				}
			}
		}

		a = now()
		rig = radar.ScanAllInto(rig[:0], t, pose)
		vp.scan.add(since(a))
		returns = returns[:0]
		for _, rr := range rig {
			returns = append(returns, sensors.RadarReturn{ObstacleID: rr.ObstacleID, Range: rr.VehiclePos.Norm(),
				Bearing: rr.VehicleBearing, RadialVel: rr.RadialVel, Time: rr.Time})
		}

		a = now()
		dets = det.DetectInto(dets[:0], t, pose)
		vp.detect.add(since(a))

		a = now()
		tracks = tracker.ObserveInto(t, returns, tracks[:0])
		vp.track.add(since(a))

		a = now()
		matches, ud, _ := syncScratch.SpatialSyncInto(syncCfg, dets, tracks)
		fused = fusion.FuseAllInto(fused[:0], matches, ud)
		vp.fusion.add(since(a))

		// Lane-frame conversion as core does it (core's own glue, untimed).
		in := planning.Input{Speed: r.Speed, LaneOffset: lane.LateralOffset(pose.Pos),
			TargetSpeed: cfg.TargetSpeed, LaneWidth: lane.Width}
		obstacles = obstacles[:0]
		for _, f := range fused {
			wp := detect.ToWorld(pose, f.Object.Pos)
			s := wp.Sub(pose.Pos).Dot(laneDir)
			if s < -2 {
				continue
			}
			obstacles = append(obstacles, planning.Obstacle{S: s, D: lane.LateralOffset(wp),
				VS: f.Velocity.Dot(laneDir), VD: f.Velocity.Dot(normal), Radius: math.Max(f.Object.Radius, 0.3)})
		}
		in.Obstacles = obstacles
		a = now()
		plan := mpc.Plan(in)
		vp.planning.add(since(a))

		if withSinks {
			a = now()
			tracer.Record(r)
			for i := 0; i < 10; i++ {
				spans.Span(obs.PIDVirtual, 1+i, "probe", "", r.Cycle, t, time.Millisecond)
			}
			box.Record(obs.CycleRecord{Cycle: r.Cycle, TMs: r.TimeMs, X: r.PosX, Y: r.PosY, Speed: r.Speed,
				SensingMs: r.SensingMs, PerceptionMs: r.PerceptionMs, PlanningMs: r.PlanningMs,
				TcompMs: r.TcompMs, Objects: r.Objects, Blocked: r.Blocked, InFlight: r.InFlight})
			cycles.Inc()
			hist[0].Observe(r.TcompMs)
			hist[1].Observe(r.TcompMs + 20)
			hist[2].Observe(float64(r.InFlight))
			vp.obs.add(since(a))
		}

		cmd := plan.Cmd
		cmd.Seq = uint16(r.Cycle)
		a = now()
		frame, err := canbus.EncodeCommand(canbus.IDControlCommand, cmd)
		if err == nil {
			err = ecu.Receive(frame)
		}
		vp.canbus.add(since(a))
		if err != nil {
			return err
		}

		for k := 0; k < physPerCycle; k++ {
			a = now()
			st := veh.Step(physDt)
			vp.vehicle.add(since(a))
			at := t + time.Duration(k)*physDt
			a = now()
			minClear := math.Inf(1)
			for _, o := range w.Obstacles {
				pos, _ := o.At(at)
				if c := st.Pos.DistTo(pos) - o.Radius; c < minClear {
					minClear = c
				}
			}
			vp.worldAt.add(since(a))
			runtime.KeepAlive(minClear)
		}
		if cfg.ReactivePath && r.Speed >= 0.05 {
			for k := 0; k < reactPerCycle; k++ {
				at := t + time.Duration(k)*reactDt
				a = now()
				radar.NearestInSector(at, pose, 0, 0.35)
				sonar.NearestInSector(at, pose, 0, 0.5)
				vp.reactive.add(since(a))
			}
		}
	}
	swaps, hits := mgr.Stats()
	vp.swaps += swaps
	vp.hits += hits

	// The engine's own cost: the same event mix with empty handlers.
	eng := sim.NewEngine()
	nop := func() {}
	ctrl := time.Duration(float64(time.Second) / cfg.ControlRate)
	eng.Every(physDt, "physics", nop)
	eng.Every(ctrl, "control", func() { eng.Schedule(ctrl*3/2, "command-delivery", nop) })
	if cfg.ReactivePath {
		eng.Every(reactDt, "reactive", nop)
	}
	a := now()
	vp.simEvents += eng.Run(time.Duration(len(recs)) * ctrl)
	vp.sim.add(since(a))
	return nil
}

// metrics turns the probes of slice 0 into the per-layer metrics of the
// single-vehicle workloads. workUS is slice 0's work time and closeUS what
// closing the attached sinks took, which counts as observability.
func (vp *vehicleProbes) metrics(workUS, closeUS float64, m map[string]float64) {
	share := func(ps ...*probe) float64 {
		b := 0.0
		for _, p := range ps {
			b += sum(p.us)
		}
		return b / workUS
	}
	m["rpr.swaps"] = float64(vp.swaps)
	m["rpr.hits"] = float64(vp.hits)
	m["rpr.transfer_call_us"] = vp.rprSwap.callUS()
	m["rpr.busy_ms"] = vp.rpr.busyMs()
	m["rpr.share"] = share(&vp.rpr)
	if vp.simBytes > 0 {
		m["rpr.sim_cycles_per_mib"] = float64(vp.simCycles) / (float64(vp.simBytes) / (1 << 20))
	}
	m["rpr.swap_virtual_ms"] = millis(vp.swapVirtual)

	plans := sortedCopy(vp.planning.us)
	m["planning.plans"] = float64(vp.planning.calls())
	m["planning.plan_call_us_p50"], _ = quantile(plans, 0.5)
	m["planning.plan_call_us_p90"], _ = quantile(plans, 0.9)
	m["planning.busy_ms"] = vp.planning.busyMs()
	m["planning.share"] = share(&vp.planning)

	m["sensors.radar_scans"] = float64(vp.scan.calls() + vp.reactive.calls())
	m["sensors.scan_call_us"] = vp.scan.callUS()
	m["sensors.share"] = share(&vp.scan, &vp.reactive)
	m["detect.call_us"], m["detect.share"] = vp.detect.callUS(), share(&vp.detect)
	m["track.call_us"], m["track.share"] = vp.track.callUS(), share(&vp.track)
	m["fusion.call_us"], m["fusion.share"] = vp.fusion.callUS(), share(&vp.fusion)

	m["vehicle.steps"] = float64(vp.vehicle.calls())
	m["vehicle.step_call_us"], m["vehicle.share"] = vp.vehicle.callUS(), share(&vp.vehicle)
	m["canbus.frames"] = float64(vp.canbus.calls())
	m["canbus.encode_call_us"], m["canbus.share"] = vp.canbus.callUS(), share(&vp.canbus)
	m["sim.events"] = float64(vp.simEvents)
	if vp.simEvents > 0 {
		m["sim.event_call_us"] = sum(vp.sim.us) / float64(vp.simEvents)
	}
	m["sim.share"] = share(&vp.sim)
	m["world.complexity_call_us"] = vp.world.callUS()
	m["world.share"] = share(&vp.world, &vp.worldAt)
	m["sched.cycle_call_us"], m["sched.share"] = vp.sched.callUS(), share(&vp.sched)
	m["obs.record_call_us"] = vp.obs.callUS()
	m["obs.share"] = share(&vp.obs) + closeUS/workUS

	attributed := share(vp.attributed()...) + closeUS/workUS
	m["bench.attributed_share"] = attributed
	m["core.self_share"] = 1 - attributed
}

// planProbe times MPC.Plan on a typical cruising input; the fleet workload
// uses it to estimate planning's share from the cycle count.
func planProbe(n int) float64 {
	mpc := planning.NewMPC(planning.DefaultMPCConfig())
	in := planning.Input{Speed: 5.6, TargetSpeed: 5.6, LaneWidth: 3,
		Obstacles: []planning.Obstacle{{S: 20, D: 0.3, Radius: 0.5}}}
	var p probe
	for i := 0; i < n; i++ {
		in.LaneOffset = 0.02 * float64(i%7)
		a := now()
		mpc.Plan(in)
		p.add(since(a))
	}
	return median(p.us)
}

// swapProbe times alternating bitstream swaps through a Manager.
func swapProbe(n int) float64 {
	mgr := rpr.NewManager()
	var p probe
	for i := 0; i < n; i++ {
		bs := rpr.BitstreamFeatureTrack
		if i%2 == 0 {
			bs = rpr.BitstreamFeatureExtract
		}
		a := now()
		mgr.Require(bs)
		p.add(since(a))
	}
	return median(p.us)
}

// forProbe times parallel.For over a fleet-sized range with an empty body
// and counts its allocations.
func forProbe(n, grain, calls int) (callUS, allocsPerCall float64) {
	body := func(start, end int) {}
	for i := 0; i < 50; i++ {
		parallel.For(n, grain, body)
	}
	_, m0 := allocNow(false)
	a := now()
	for i := 0; i < calls; i++ {
		parallel.For(n, grain, body)
	}
	d := since(a)
	_, m1 := allocNow(false)
	return micros(d) / float64(calls), float64(m1-m0) / float64(calls)
}

// batchProbe times the shard-sized int8 batched detector forward pass the
// fleet runs on perception epochs, built the way fleet/batch.go builds it.
func batchProbe(seed int64, shardLen, calls int) float64 {
	const h, w, classes = 32, 32, 2
	y := nn.NewTinyYOLO(h, w, classes, seed)
	calib := nn.NewTensor(1, h, w)
	for i := range calib.Data {
		calib.Data[i] = float32(i%13) / 13
	}
	model := nn.QuantizeYOLO(y, calib).ShareClone()
	inputs := make([]*nn.Tensor, shardLen)
	x := uint32(seed)*2654435761 + 1
	for i := range inputs {
		inputs[i] = nn.NewTensor(1, h, w)
		for j := range inputs[i].Data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			inputs[i].Data[j] = float32(x&0xff) / 255
		}
	}
	var scratch detect.QuantDetectScratch
	var outs [][]detect.BBox
	outs = detect.RunQuantCNNBatch(outs, model, inputs, 0.35, 0.5, &scratch) // warm the scratch
	var p probe
	for i := 0; i < calls; i++ {
		a := now()
		outs = detect.RunQuantCNNBatch(outs, model, inputs, 0.35, 0.5, &scratch)
		p.add(since(a))
	}
	return median(p.us)
}

// advanceProbe advances the fleet's vehicles outside the fleet: the same
// template, seeds and worlds are not reproducible from outside, so it uses
// the template on one shared campus loop, which costs the same per cycle.
// It returns the host milliseconds of each epoch of advancing n vehicles with
// parallel.For at the fleet's grain.
func advanceProbe(template core.Config, seed int64, n, warm, epochs int, epoch time.Duration) []float64 {
	w := world.CampusLoop(250, sim.NewRNG(seed))
	sovs := make([]*core.SoV, n)
	for i := range sovs {
		cfg := template
		cfg.Seed = seed*7919 + int64(i)
		cfg.LeanReport = true
		cfg.StartOffsetM = 1000 * float64(i) / float64(n)
		sovs[i] = core.New(cfg, w)
		sovs[i].Start()
	}
	var end time.Duration
	body := func(start, stop int) {
		for i := start; i < stop; i++ {
			sovs[i].AdvanceTo(end)
		}
	}
	var ds []float64
	for e := 1; e <= warm+epochs; e++ {
		end = time.Duration(e) * epoch
		a := now()
		parallel.For(n, 8, body)
		if e > warm {
			ds = append(ds, millis(since(a)))
		}
	}
	return ds
}

// blockProbe times cloud.Compress and cloud.Decompress on 4 KB blocks laid
// out as the store lays them out: one vehicle's consecutive snapshots, each
// an 18-byte big-endian key, a uvarint length and the payload. Each side
// runs as one tight loop, the way a flush or a scan calls it. Compress
// allocates a fresh ~1 MB writer per call, so most of its cost is collector
// work and depends on how often the collector runs; ballastMB of live heap
// held during the loops gives the collector the pacing it has inside a full
// store. storedBytes is the mean compressed size.
func blockProbe(g *generator, blocks, rounds int, ballastMB float64) (compressUS, decompressUS, storedBytes float64, err error) {
	ballast := make([]byte, int(ballastMB*(1<<20)))
	defer runtime.KeepAlive(ballast)
	raw := make([][]byte, blocks)
	for b := range raw {
		var body []byte
		v := b % g.vehicles
		for e := 1; len(body) < 4096; e++ {
			k := g.snapshotKeyForProbe(v, e)
			body = binary.BigEndian.AppendUint32(body, k.Vehicle)
			body = binary.BigEndian.AppendUint64(body, k.TMs)
			body = binary.BigEndian.AppendUint16(body, uint16(k.Kind))
			body = binary.BigEndian.AppendUint32(body, k.Seq)
			mark := len(body)
			body = g.appendPayload(append(body, 0), v, e)
			body[mark] = byte(len(body) - mark - 1) // payloads are under 128 bytes: a one-byte uvarint
		}
		raw[b] = body
	}
	packed := make([][]byte, blocks)
	stored := 0
	a := now()
	for r := 0; r < rounds; r++ {
		for b := range raw {
			if packed[b], err = cloud.Compress(raw[b]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	dc := since(a)
	for _, c := range packed {
		stored += len(c)
	}
	a = now()
	for r := 0; r < rounds; r++ {
		for b := range packed {
			if _, err = cloud.Decompress(packed[b]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	dd := since(a)
	n := float64(blocks * rounds)
	return micros(dc) / n, micros(dd) / n, float64(stored) / float64(blocks), nil
}

// snapshotKeyForProbe is a snapshot key with a plausible sequence number,
// for blocks that are compressed but never stored.
func (g *generator) snapshotKeyForProbe(v, e int) telemetry.Key {
	return telemetry.Key{Vehicle: uint32(v), TMs: uint64(e) * 1000, Kind: telemetry.KindEpoch,
		Seq: uint32(e*(g.vehicles+g.vehicles/17) + v)}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
