// Package fleet is the sharded fleet-simulation substrate: it advances N
// core.SoV instances in lockstep virtual-time epochs over the
// internal/parallel pool, each vehicle with its own seeded RNG streams, a
// shared read-only world region, and private scratch. Between epochs a
// serial barrier settles trips, generates rider demand, dispatches idle
// vehicles, and emits fleet telemetry — so fleet traces, reports, and
// metrics are byte-identical for any -workers count (DESIGN.md §11).
//
// This is the paper's Fig. 1 loop lifted from one vehicle to the deployed
// fleet: the computing system's latency/energy budget exists to buy trips
// per hour, bounded wait times, and availability, which is exactly what
// this package measures.
package fleet

import (
	"fmt"
	"io"
	"math"
	"time"

	"sov/internal/core"
	"sov/internal/models"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/sim"
	"sov/internal/stats"
	"sov/internal/telemetry"
	"sov/internal/world"
)

// Config sizes and seeds a fleet run. The zero value is not usable; start
// from DefaultConfig, the one table of defaults: New rejects a
// non-positive size, epoch, region side, charger power or initial charge
// rather than filling one in.
type Config struct {
	// Vehicles is the fleet size (hundreds to thousands).
	Vehicles int
	// Regions is the number of independent service regions; vehicles are
	// assigned round-robin and riders only match vehicles in their region.
	Regions int
	// Shards bounds the per-shard telemetry cardinality and the batched-
	// perception clone count; capped at maxShards and at Vehicles.
	Shards int
	// Seed drives every stream in the fleet: per-vehicle seeds, region
	// worlds, demand arrivals, and initial charge are all split from it.
	Seed int64
	// Epoch is the lockstep advance quantum. All cross-vehicle coupling
	// (dispatch, charging, metrics) happens on epoch barriers.
	Epoch time.Duration
	// Vehicle is the per-vehicle template; Seed, StartOffsetM, and
	// LeanReport are overridden per vehicle.
	Vehicle core.Config
	// RegionSideM is the side of each region's campus-loop world.
	RegionSideM float64
	// DemandPerHour is the mean rider-arrival rate per region at the
	// diurnal peak's midline (arrivals modulate ±50% over a virtual day).
	DemandPerHour float64
	// TripMinM and TripMaxM bound the requested trip length.
	TripMinM, TripMaxM float64
	// RechargeSoC sends an idle vehicle to the charger below this state of
	// charge; FullSoC returns it to service.
	RechargeSoC, FullSoC float64
	// ChargeRateKW is the depot charger power (models.DepotChargeRateKW).
	ChargeRateKW float64
	// InitialSoCMin/Max spread the fleet's starting charge uniformly so
	// recharge churn appears without hours of virtual driving.
	InitialSoCMin, InitialSoCMax float64
	// PerceptionEvery runs the batched quantized detector across each
	// shard's vehicles every k epochs (0 disables): PR 6's layer-major
	// batching applied across vehicles instead of cameras, so one weight-
	// panel traversal serves a whole shard.
	PerceptionEvery int
	// Trace, when non-nil, receives one JSONL record per epoch (including
	// the epoch's dispatch assignments). The encoder is allocation-free
	// and byte-identical for any worker count.
	Trace io.Writer
	// Cloud, when non-nil, receives per-vehicle telemetry events from the
	// serial barrier (epoch snapshots, assignments, pickups/dropoffs,
	// collision and reactive-brake deltas, halts), flushed as one store
	// batch per epoch. The emitted byte stream is byte-identical for any
	// worker count (see cloud.go).
	Cloud *telemetry.Ingestor
}

// maxShards bounds per-shard metric cardinality: shard-aggregated series
// instead of one series per vehicle keep the exposition size and the
// per-epoch metric work independent of fleet size.
const maxShards = 32

// DefaultConfig returns a deployable fleet configuration over the deployed
// per-vehicle config.
func DefaultConfig() Config {
	return Config{
		Vehicles:        100,
		Regions:         4,
		Shards:          8,
		Seed:            1,
		Epoch:           time.Second,
		Vehicle:         core.DefaultConfig(),
		RegionSideM:     250,
		DemandPerHour:   120,
		TripMinM:        200,
		TripMaxM:        800,
		RechargeSoC:     0.20,
		FullSoC:         0.95,
		ChargeRateKW:    models.DepotChargeRateKW,
		InitialSoCMin:   0.60,
		InitialSoCMax:   1.00,
		PerceptionEvery: 0,
	}
}

// vehState is a vehicle's service state, transitioned only on epoch
// barriers.
type vehState uint8

const (
	stateIdle vehState = iota
	stateToPickup
	stateOnTrip
	stateCharging
	stateHalted
)

// unit is one fleet vehicle: the SoV instance plus the dispatch-facing
// snapshot the barrier reads. During the parallel advance phase each unit
// is written only by the worker that claimed it; the barrier reads and
// transitions them serially in id order.
type unit struct {
	id       int
	region   int32
	state    vehState
	halt     bool
	sov      *core.SoV
	startOff float64
	odo      float64
	soc      float64
	rider    int32
	pickup   float64 // odometer reading at which the assigned rider boards
	dropoff  float64 // odometer reading at which the trip completes
	trips    int64
	boxes    int // detections from the last batched-perception epoch

	// Cloud-uplink deltas: counter values already emitted as events.
	prevColl  int
	prevReact int
}

// rider is one trip request. Slots live in an arena and recycle through a
// free list so steady-state demand allocates nothing.
type rider struct {
	seq     int64   // stable id for traces (arena slots are reused)
	pos     float64 // ring position of the pickup point
	tripLen float64
	arriveT time.Duration
	pickupT time.Duration
}

// fifo is a reusable FIFO of rider arena indices.
type fifo struct {
	idx  []int32
	head int
}

func (q *fifo) len() int     { return len(q.idx) - q.head }
func (q *fifo) peek() int32  { return q.idx[q.head] }
func (q *fifo) push(r int32) { q.idx = append(q.idx, r) }
func (q *fifo) pop() int32 {
	r := q.idx[q.head]
	q.head++
	if q.head == len(q.idx) {
		q.idx = q.idx[:0]
		q.head = 0
	}
	return r
}

// region is one service area: a shared read-only world, its demand stream,
// and the rider queue.
type region struct {
	world    *world.World
	vehicles []int // unit ids serving this region, ascending
	rng      *sim.RNG
	queue    fifo
}

// transition is one entry of the epoch's barrier log: a vehicle halting, a
// rider boarding (value is the wait in s) or alighting (the trip in s), or
// a dispatch decision (the pickup distance in m). Kind is the telemetry
// kind the cloud uplink files it under.
type transition struct {
	kind    telemetry.Kind
	vehicle int
	rider   int64 // rider seq; unused for a halt
	value   float64
}

// Fleet is the sharded substrate. Step advances every vehicle one epoch;
// Run loops Step to a horizon and returns the summary.
type Fleet struct {
	cfg     Config
	units   []*unit
	regions []*region
	perim   float64
	grain   int
	nShards int

	epoch    int
	epochEnd time.Duration

	riders     []rider
	freeRiders []int32
	riderSeq   int64

	// log is the epoch's transitions in barrier order, reused across
	// epochs; sum is the fold observe makes of the epoch.
	log []transition
	sum Summary

	// Pre-bound fan-out closures: built once so the steady-state epoch
	// loop never allocates for scheduling.
	advanceFn func(start, end int)
	shardFn   func(start, end int)

	shards []*shardNN

	tr *traceWriter
	m  *fleetMetrics

	cloud    *telemetry.Ingestor
	cloudErr error
	payload  obs.JSONObj // cloud payload scratch; Ingestor.Add copies it out

	// Run aggregates behind the fold (updated serially on barriers).
	waitW       stats.Welford
	waitHist    *stats.Histogram
	tripW       stats.Welford
	availEpochs int64 // vehicle-epochs in service (idle or serving)
	totalEpochs int64 // vehicle-epochs overall
	window      []int32
	windowSum   int64
	peakWindow  int64
	shardSize   int     // unit i is in shard i/shardSize (shardBounds' blocks)
	shardCycles []int64 // per-shard cycle totals at this barrier
	shardTrips  []int64 // per-shard trip totals at this barrier
}

// New builds the fleet: regions, vehicles (each with its own split seed and
// staggered start), shard state, and (optionally) the shared quantized
// detector clones. Worlds are read-only after construction, so vehicles of
// one region share a single instance. It panics on an unusable Config.
func New(cfg Config) *Fleet {
	switch {
	case cfg.Vehicles <= 0:
		panic("fleet: need at least one vehicle")
	case cfg.Regions <= 0:
		panic(fmt.Sprintf("fleet: Regions %d: need at least one region", cfg.Regions))
	case cfg.Epoch <= 0:
		panic(fmt.Sprintf("fleet: Epoch %v: the lockstep epoch must be positive", cfg.Epoch))
	case cfg.Shards <= 0:
		panic(fmt.Sprintf("fleet: Shards %d: need at least one shard", cfg.Shards))
	case cfg.RegionSideM <= 0:
		panic(fmt.Sprintf("fleet: RegionSideM %g: a region needs a positive side", cfg.RegionSideM))
	case cfg.ChargeRateKW <= 0:
		panic(fmt.Sprintf("fleet: ChargeRateKW %g: the depot charger needs positive power", cfg.ChargeRateKW))
	case cfg.InitialSoCMax <= 0:
		panic(fmt.Sprintf("fleet: InitialSoCMax %g: the fleet needs some starting charge", cfg.InitialSoCMax))
	}
	cfg.Regions = min(cfg.Regions, cfg.Vehicles)
	cfg.Shards = min(cfg.Shards, maxShards, cfg.Vehicles)
	if cfg.TripMaxM < cfg.TripMinM {
		cfg.TripMaxM = cfg.TripMinM
	}

	f := &Fleet{
		cfg:         cfg,
		perim:       4 * cfg.RegionSideM,
		grain:       8,
		nShards:     cfg.Shards,
		waitHist:    stats.NewHistogram(0, 600, 24), // wait seconds, 25 s bins
		window:      make([]int32, peakWindowEpochs(cfg.Epoch)),
		shardSize:   (cfg.Vehicles + cfg.Shards - 1) / cfg.Shards,
		shardCycles: make([]int64, cfg.Shards),
		shardTrips:  make([]int64, cfg.Shards),
		sum:         Summary{Vehicles: cfg.Vehicles, Regions: cfg.Regions},
	}

	for r := 0; r < cfg.Regions; r++ {
		wrng := sim.NewRNG(splitSeed(cfg.Seed, streamRegionWorld, int64(r)))
		f.regions = append(f.regions, &region{
			world: world.CampusLoop(cfg.RegionSideM, wrng),
			rng:   sim.NewRNG(splitSeed(cfg.Seed, streamDemand, int64(r))),
		})
	}

	socRNG := sim.NewRNG(splitSeed(cfg.Seed, streamInitialSoC, 0))
	maxPerRegion := (cfg.Vehicles + cfg.Regions - 1) / cfg.Regions
	spacing := f.perim / float64(maxPerRegion)
	for i := 0; i < cfg.Vehicles; i++ {
		r := i % cfg.Regions
		vcfg := cfg.Vehicle
		vcfg.Seed = splitSeed(cfg.Seed, streamVehicle, int64(i))
		vcfg.LeanReport = true
		vcfg.StartOffsetM = spacing * float64(i/cfg.Regions)
		s := core.New(vcfg, f.regions[r].world)
		if cfg.InitialSoCMax < 1 || cfg.InitialSoCMin < 1 {
			s.Battery().SoC = socRNG.Uniform(cfg.InitialSoCMin, cfg.InitialSoCMax)
		}
		u := &unit{
			id:       i,
			region:   int32(r),
			sov:      s,
			startOff: vcfg.StartOffsetM,
			soc:      s.Battery().SoC,
			rider:    -1,
		}
		f.units = append(f.units, u)
		f.regions[r].vehicles = append(f.regions[r].vehicles, i)
	}
	for _, u := range f.units {
		u.sov.Start()
	}
	// A vehicle logs at most three transitions an epoch (pickup, dropoff,
	// then a new assignment) and rarely more than one: twice the fleet
	// size keeps the log from regrowing in the epoch loop.
	f.log = make([]transition, 0, 2*len(f.units))
	f.advanceFn = f.advanceRange
	if cfg.PerceptionEvery > 0 {
		f.initShards()
		f.shardFn = f.shardRange
	}
	if cfg.Trace != nil {
		f.tr = newTraceWriter(cfg.Trace)
	}
	f.cloud = cfg.Cloud
	return f
}

// shardBounds returns the vehicle range [lo, hi) of shard s when n vehicles
// split across shards. Vehicles map to shards in contiguous ceil-sized id
// blocks, so when the blocks run out before the last shard (10 vehicles on
// 8 shards are blocks of 2) the trailing shards are empty: both ends clamp
// to n.
func shardBounds(s, n, shards int) (lo, hi int) {
	size := (n + shards - 1) / shards
	lo = min(s*size, n)
	return lo, min(lo+size, n)
}

// AttachMetrics registers the fleet's bounded-cardinality metrics on reg:
// fleet-wide counters/histograms/gauges plus one counter pair per shard
// (never per vehicle). Call before the first Step.
func (f *Fleet) AttachMetrics(reg *obs.Registry) { f.m = newFleetMetrics(reg, f.nShards) }

// Now returns the fleet's virtual time (the last completed epoch barrier).
func (f *Fleet) Now() time.Duration { return f.epochEnd }

// Epochs returns the number of completed epochs.
func (f *Fleet) Epochs() int { return f.epoch }

// Step advances the whole fleet one epoch: the parallel advance phase
// (each vehicle's engine runs to the epoch barrier), the optional batched
// perception fan-out, then the serial barrier (trip settlement, demand,
// dispatch, telemetry) in fixed vehicle/region order. Steady state
// allocates nothing.
func (f *Fleet) Step() {
	f.epoch++
	f.epochEnd = time.Duration(f.epoch) * f.cfg.Epoch
	parallel.For(len(f.units), f.grain, f.advanceFn)
	if f.shardFn != nil && f.epoch%f.cfg.PerceptionEvery == 0 {
		parallel.For(f.nShards, 1, f.shardFn)
	}
	f.log = f.log[:0]
	f.settle()
	arrived := f.arrivals()
	f.dispatch()
	f.observe(arrived)
}

// Run advances the fleet by every whole epoch that ends at or before the
// horizon and returns the summary; a horizon shorter than one epoch steps
// nothing.
func (f *Fleet) Run(horizon time.Duration) *Summary {
	for f.epochEnd+f.cfg.Epoch <= horizon {
		f.Step()
	}
	return f.Summarize()
}

// advanceRange is the parallel advance body: vehicles [start, end) run
// their engines to the epoch barrier and snapshot the fields the serial
// barrier reads. Each unit is touched by exactly one worker per epoch, and
// a vehicle's virtual-time evolution depends only on its own streams, so
// the results are independent of the tiling.
func (f *Fleet) advanceRange(start, end int) {
	for i := start; i < end; i++ {
		u := f.units[i]
		if u.state == stateHalted {
			continue
		}
		u.sov.AdvanceTo(f.epochEnd)
		u.odo = u.sov.Vehicle().Odometer()
		u.soc = u.sov.Battery().SoC
		if u.sov.Halted() {
			u.halt = true
		}
	}
}

// ringPos maps a unit's odometer onto its region loop.
func ringPos(startOff, odo, perim float64) float64 {
	p := math.Mod(startOff+odo, perim)
	if p < 0 {
		p += perim
	}
	return p
}

// ringDist is the forward distance a one-way vehicle at vpos covers to
// reach pos on a loop of length perim.
func ringDist(vpos, pos, perim float64) float64 {
	d := pos - vpos
	if d < 0 {
		d += perim
	}
	return d
}

// settle is the first barrier phase: in vehicle-id order, retire halted
// vehicles, board and complete trips the epoch's driving reached, and run
// the charge cycle. Each halt, pickup and dropoff goes on the epoch log.
func (f *Fleet) settle() {
	for _, u := range f.units {
		if u.halt && u.state != stateHalted {
			// A dead pack strands its rider: the request goes back to the
			// head region queue for re-dispatch.
			if u.rider >= 0 {
				f.regions[u.region].queue.push(u.rider)
				u.rider = -1
			}
			u.state = stateHalted
			f.log = append(f.log, transition{kind: telemetry.KindHalt, vehicle: u.id})
		}
		if u.state == stateToPickup && u.odo >= u.pickup {
			r := &f.riders[u.rider]
			r.pickupT = f.epochEnd
			wait := (f.epochEnd - r.arriveT).Seconds()
			f.log = append(f.log, transition{telemetry.KindPickup, u.id, r.seq, wait})
			u.state = stateOnTrip
		}
		if u.state == stateOnTrip && u.odo >= u.dropoff {
			r := &f.riders[u.rider]
			trip := (f.epochEnd - r.pickupT).Seconds()
			f.log = append(f.log, transition{telemetry.KindDropoff, u.id, r.seq, trip})
			f.freeRiders = append(f.freeRiders, u.rider)
			u.rider = -1
			u.trips++
			u.state = stateIdle
		}
		switch u.state {
		case stateIdle:
			if u.soc < f.cfg.RechargeSoC {
				u.state = stateCharging
			}
		case stateCharging:
			// The depot feed outruns the drive load, so the vehicle keeps
			// its engine warm (events keep firing) while the pack refills.
			u.sov.Battery().Charge(f.cfg.ChargeRateKW, f.cfg.Epoch)
			u.soc = u.sov.Battery().SoC
			if u.soc >= f.cfg.FullSoC {
				u.state = stateIdle
			}
		}
	}
}

// arrivals is the demand phase: per region (in region order, one RNG
// stream each), a Poisson-distributed number of riders arrives with
// uniform pickup points and trip lengths, modulated by the diurnal curve.
// Returns the number of riders that arrived.
func (f *Fleet) arrivals() (arrived int) {
	if f.cfg.DemandPerHour <= 0 {
		return 0
	}
	lambda := f.cfg.DemandPerHour / 3600 * f.cfg.Epoch.Seconds() * diurnal(f.epochEnd)
	for _, rg := range f.regions {
		n := poisson(rg.rng, lambda)
		for k := 0; k < n; k++ {
			pos := rg.rng.Uniform(0, f.perim)
			tripLen := rg.rng.Uniform(f.cfg.TripMinM, f.cfg.TripMaxM)
			idx := f.allocRider()
			r := &f.riders[idx]
			r.pos = pos
			r.tripLen = tripLen
			r.arriveT = f.epochEnd
			r.pickupT = 0
			rg.queue.push(idx)
		}
		arrived += n
	}
	return arrived
}

// allocRider returns a rider arena slot, recycling completed slots so
// steady-state demand does not grow the arena.
func (f *Fleet) allocRider() int32 {
	f.riderSeq++
	if n := len(f.freeRiders); n > 0 {
		idx := f.freeRiders[n-1]
		f.freeRiders = f.freeRiders[:n-1]
		f.riders[idx].seq = f.riderSeq
		return idx
	}
	f.riders = append(f.riders, rider{seq: f.riderSeq})
	return int32(len(f.riders) - 1)
}

// dispatch is the assignment phase: per region, riders leave the FIFO in
// arrival order and each takes the nearest idle vehicle by forward ring
// distance (ties to the lowest vehicle id). A head-of-line rider with no
// idle vehicle waits — later riders do not jump the queue. Each assignment
// goes on the epoch log.
func (f *Fleet) dispatch() {
	for _, rg := range f.regions {
		for rg.queue.len() > 0 {
			ridx := rg.queue.peek()
			r := &f.riders[ridx]
			best, bestDist := -1, math.Inf(1)
			for _, vid := range rg.vehicles {
				u := f.units[vid]
				if u.state != stateIdle {
					continue
				}
				d := ringDist(ringPos(u.startOff, u.odo, f.perim), r.pos, f.perim)
				if d < bestDist {
					best, bestDist = vid, d
				}
			}
			if best < 0 {
				break
			}
			rg.queue.pop()
			u := f.units[best]
			u.state = stateToPickup
			u.rider = ridx
			u.pickup = u.odo + bestDist
			u.dropoff = u.pickup + r.tripLen
			f.log = append(f.log, transition{telemetry.KindAssign, best, r.seq, bestDist})
		}
	}
}

// diurnal modulates demand ±50% over a 24 h virtual day (peak at 1/4 day).
func diurnal(t time.Duration) float64 {
	const day = 24 * 3600.0
	return 1 + 0.5*math.Sin(2*math.Pi*t.Seconds()/day)
}

// poisson draws a Poisson(lambda) count via Knuth's product method — exact
// for the small per-epoch arrival rates the fleet uses, and consuming a
// deterministic stream of uniforms.
func poisson(rng *sim.RNG, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// peakWindowEpochs sizes the peak-throughput rolling window to ~5 virtual
// minutes.
func peakWindowEpochs(epoch time.Duration) int {
	n := int((5 * time.Minute) / epoch)
	if n < 1 {
		n = 1
	}
	return n
}

// observe is the telemetry phase: fold the epoch once, then hand the fold
// and the log to whichever sinks are attached.
func (f *Fleet) observe(arrived int) {
	completed := f.fold(arrived)
	if f.m != nil {
		f.m.publish(f)
	}
	if f.tr != nil {
		f.tr.record(&f.sum, completed, f.log)
	}
	if f.cloud != nil {
		f.uplink()
	}
}

// fold is the epoch's one pass over what happened: the log, in barrier
// order, feeds the wait and trip statistics, and one walk over the units,
// in id order, tallies states, cycles, collisions, distance, charge,
// detections and the per-shard totals. It fills f.sum, which every sink
// reads, and returns the trips completed this epoch.
func (f *Fleet) fold(arrived int) (completed int) {
	s := &f.sum
	s.Epochs, s.VirtualTime = f.epoch, f.epochEnd
	s.RidersArrived += int64(arrived)
	for _, t := range f.log {
		switch t.kind {
		case telemetry.KindAssign:
			s.TripsAssigned++
		case telemetry.KindPickup:
			f.waitW.Observe(t.value)
			f.waitHist.Observe(t.value)
			s.WaitMaxS = max(s.WaitMaxS, t.value)
		case telemetry.KindDropoff:
			f.tripW.Observe(t.value)
			completed++
		}
	}
	s.TripsCompleted += int64(completed)
	s.WaitMeanS, s.TripMeanS = f.waitW.Mean(), f.tripW.Mean()

	slot := (f.epoch - 1) % len(f.window)
	f.windowSum += int64(completed) - int64(f.window[slot])
	f.window[slot] = int32(completed)
	f.peakWindow = max(f.peakWindow, f.windowSum)

	s.Idle, s.Busy, s.Charging, s.Halted = 0, 0, 0, 0
	s.Cycles, s.Collisions, s.DistanceM = 0, 0, 0
	soc := 0.0
	clear(f.shardCycles)
	clear(f.shardTrips)
	for i, u := range f.units {
		switch u.state {
		case stateIdle:
			s.Idle++
		case stateToPickup, stateOnTrip:
			s.Busy++
		case stateCharging:
			s.Charging++
		case stateHalted:
			s.Halted++
		}
		cyc := int64(u.sov.Cycles())
		s.Cycles += cyc
		s.Collisions += u.sov.CollisionCount()
		s.DistanceM += u.odo
		soc += u.soc
		s.Detections += int64(u.boxes)
		u.boxes = 0
		f.shardCycles[i/f.shardSize] += cyc
		f.shardTrips[i/f.shardSize] += u.trips
	}
	s.MeanSoC = soc / float64(len(f.units))
	s.WaitingNow = 0
	for _, rg := range f.regions {
		s.WaitingNow += rg.queue.len()
	}

	f.availEpochs += int64(s.Idle + s.Busy)
	f.totalEpochs += int64(len(f.units))
	s.TripsPerHour = float64(s.TripsCompleted) / f.epochEnd.Hours()
	s.PeakTripsPerHour = float64(f.peakWindow) / (time.Duration(len(f.window)) * f.cfg.Epoch).Hours()
	s.Availability = float64(f.availEpochs) / float64(f.totalEpochs)
	return completed
}

// Summary is the fleet-utility report: the EM411-style vehicle/fleet MVU
// metrics (trips per hour, peak throughput, wait distribution,
// availability) plus the substrate's own totals.
type Summary struct {
	Vehicles, Regions, Epochs int
	VirtualTime               time.Duration

	RidersArrived  int64
	TripsAssigned  int64
	TripsCompleted int64
	TripsPerHour   float64
	// PeakTripsPerHour is the best 5-minute completion window, annualized
	// to an hourly rate.
	PeakTripsPerHour float64
	WaitMeanS        float64
	WaitMaxS         float64
	TripMeanS        float64
	// Availability is the fraction of vehicle-epochs spent in service
	// (idle or serving) rather than charging or dead.
	Availability float64
	WaitingNow   int

	DistanceM                    float64
	Cycles                       int64
	Collisions                   int
	MeanSoC                      float64
	Detections                   int64
	Idle, Busy, Charging, Halted int
}

// Summarize returns the fold of the last completed epoch (before the
// first Step, only the fleet's shape is set). It does not stop the fleet —
// Step may continue afterwards.
func (f *Fleet) Summarize() *Summary {
	s := f.sum
	return &s
}

// WaitHistogram renders the wait-time distribution as a terminal chart.
func (f *Fleet) WaitHistogram(width int) string {
	if f.waitHist.Total() == 0 {
		return "(no pickups)\n"
	}
	return "rider wait distribution (s):\n" + f.waitHist.Render(width)
}

// Render formats the fleet-utility summary.
func (s *Summary) Render() string {
	out := fmt.Sprintf("fleet: %d vehicles, %d regions, %d epochs (%v virtual)\n",
		s.Vehicles, s.Regions, s.Epochs, s.VirtualTime)
	out += fmt.Sprintf("demand: %d riders arrived, %d assigned, %d completed (%d waiting now)\n",
		s.RidersArrived, s.TripsAssigned, s.TripsCompleted, s.WaitingNow)
	out += fmt.Sprintf("utility: %.1f trips/hour (peak %.1f), wait mean %.1f s max %.1f s, trip mean %.1f s\n",
		s.TripsPerHour, s.PeakTripsPerHour, s.WaitMeanS, s.WaitMaxS, s.TripMeanS)
	out += fmt.Sprintf("availability: %.1f%% of vehicle-time in service (%d idle, %d busy, %d charging, %d halted)\n",
		100*s.Availability, s.Idle, s.Busy, s.Charging, s.Halted)
	out += fmt.Sprintf("substrate: %.0f m driven, %d control cycles, %d collisions, mean SoC %.1f%%\n",
		s.DistanceM, s.Cycles, s.Collisions, 100*s.MeanSoC)
	if s.Detections > 0 {
		out += fmt.Sprintf("perception: %d batched detections across the fleet\n", s.Detections)
	}
	return out
}
