package fleet

import (
	"fmt"
	"time"

	"sov/internal/obs"
)

// Bounded-cardinality fleet telemetry. The registry has no label support
// by design (labels are where cardinality explosions hide), so per-vehicle
// series are off the table: vehicle activity is aggregated into at most
// maxShards per-shard counter pairs, named at registration time
// (fleet_shard00_cycles_total …). The per-epoch publish path does only
// Counter.Add / Gauge.Set / Histogram.Observe, all of which are
// allocation-free, so fleet metrics ride inside the substrate's
// zero-steady-state-alloc budget.
type fleetMetrics struct {
	arrived   *obs.Counter
	assigned  *obs.Counter
	completed *obs.Counter
	waitS     *obs.Histogram
	tripS     *obs.Histogram

	idle     *obs.Gauge
	busy     *obs.Gauge
	charging *obs.Gauge
	halted   *obs.Gauge
	waiting  *obs.Gauge
	tph      *obs.Gauge
	peakTPH  *obs.Gauge
	avail    *obs.Gauge
	soc      *obs.Gauge

	shardCycles []*obs.Counter
	shardTrips  []*obs.Counter

	// prev* hold the totals already published, so the epoch path can Add
	// deltas instead of re-counting from zero.
	prevArrived, prevAssigned, prevCompleted int64
}

func newFleetMetrics(reg *obs.Registry, shards int) *fleetMetrics {
	m := &fleetMetrics{
		arrived:   reg.Counter("fleet_riders_arrived_total", "trip requests generated", obs.ClassVirtual),
		assigned:  reg.Counter("fleet_trips_assigned_total", "riders matched to a vehicle", obs.ClassVirtual),
		completed: reg.Counter("fleet_trips_completed_total", "trips dropped off", obs.ClassVirtual),
		waitS:     reg.Histogram("fleet_wait_s", "rider wait from request to pickup (s)", obs.ClassVirtual, 0, 600, 12),
		tripS:     reg.Histogram("fleet_trip_duration_s", "trip duration pickup to dropoff (s)", obs.ClassVirtual, 0, 1200, 12),
		idle:      reg.Gauge("fleet_vehicles_idle", "vehicles idle and dispatchable", obs.ClassVirtual),
		busy:      reg.Gauge("fleet_vehicles_busy", "vehicles en route to pickup or on trip", obs.ClassVirtual),
		charging:  reg.Gauge("fleet_vehicles_charging", "vehicles at the depot charger", obs.ClassVirtual),
		halted:    reg.Gauge("fleet_vehicles_halted", "vehicles retired (dead pack)", obs.ClassVirtual),
		waiting:   reg.Gauge("fleet_riders_waiting", "riders queued without a vehicle", obs.ClassVirtual),
		tph:       reg.Gauge("fleet_trips_per_hour", "completed trips per virtual hour", obs.ClassVirtual),
		peakTPH:   reg.Gauge("fleet_peak_trips_per_hour", "best 5-minute completion window, hourly rate", obs.ClassVirtual),
		avail:     reg.Gauge("fleet_availability", "fraction of vehicle-time in service", obs.ClassVirtual),
		soc:       reg.Gauge("fleet_mean_soc", "fleet mean state of charge", obs.ClassVirtual),
	}
	for s := 0; s < shards; s++ {
		m.shardCycles = append(m.shardCycles, reg.Counter(
			fmt.Sprintf("fleet_shard%02d_cycles_total", s),
			"control cycles captured by this shard's vehicles", obs.ClassVirtual))
		m.shardTrips = append(m.shardTrips, reg.Counter(
			fmt.Sprintf("fleet_shard%02d_trips_total", s),
			"trips completed by this shard's vehicles", obs.ClassVirtual))
	}
	return m
}

// publish pushes the epoch's deltas and gauges. Runs on the serial barrier.
func (m *fleetMetrics) publish(f *Fleet) {
	m.arrived.Add(f.totArrived - m.prevArrived)
	m.prevArrived = f.totArrived
	m.assigned.Add(f.totAssigned - m.prevAssigned)
	m.prevAssigned = f.totAssigned
	m.completed.Add(f.totCompleted - m.prevCompleted)
	m.prevCompleted = f.totCompleted

	idle, busy, charging, halted := f.counts()
	m.idle.Set(float64(idle))
	m.busy.Set(float64(busy))
	m.charging.Set(float64(charging))
	m.halted.Set(float64(halted))
	m.waiting.Set(float64(f.waiting()))
	if f.epochEnd > 0 {
		m.tph.Set(float64(f.totCompleted) / f.epochEnd.Hours())
	}
	windowHours := (time.Duration(len(f.window)) * f.cfg.Epoch).Hours()
	if windowHours > 0 {
		m.peakTPH.Set(float64(f.peakWindow) / windowHours)
	}
	if f.totalEpochs > 0 {
		m.avail.Set(float64(f.availEpochs) / float64(f.totalEpochs))
	}
	m.soc.Set(f.meanSoC())

	// Shard aggregation: vehicles map to shards by contiguous id blocks, so
	// the per-shard totals are simple strided sums over the unit slice.
	for s := 0; s < f.nShards; s++ {
		lo, hi := shardBounds(s, len(f.units), f.nShards)
		var cyc, trips int64
		for i := lo; i < hi; i++ {
			cyc += int64(f.units[i].sov.Cycles())
			trips += f.units[i].trips
		}
		m.shardCycles[s].Add(cyc - f.prevCycles[s])
		f.prevCycles[s] = cyc
		m.shardTrips[s].Add(trips - f.prevTrips[s])
		f.prevTrips[s] = trips
	}
}
