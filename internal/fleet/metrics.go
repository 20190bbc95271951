package fleet

import (
	"fmt"

	"sov/internal/obs"
	"sov/internal/telemetry"
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
	prevCycles, prevTrips                    []int64 // per shard
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

		prevCycles: make([]int64, shards),
		prevTrips:  make([]int64, shards),
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

// publish pushes the epoch's fold as counter deltas and gauges, and the
// log's waits and trip durations into the histograms. Runs on the serial
// barrier, after the fold.
func (m *fleetMetrics) publish(f *Fleet) {
	s := &f.sum
	m.arrived.Add(s.RidersArrived - m.prevArrived)
	m.prevArrived = s.RidersArrived
	m.assigned.Add(s.TripsAssigned - m.prevAssigned)
	m.prevAssigned = s.TripsAssigned
	m.completed.Add(s.TripsCompleted - m.prevCompleted)
	m.prevCompleted = s.TripsCompleted
	for _, t := range f.log {
		switch t.kind {
		case telemetry.KindPickup:
			m.waitS.Observe(t.value)
		case telemetry.KindDropoff:
			m.tripS.Observe(t.value)
		}
	}

	m.idle.Set(float64(s.Idle))
	m.busy.Set(float64(s.Busy))
	m.charging.Set(float64(s.Charging))
	m.halted.Set(float64(s.Halted))
	m.waiting.Set(float64(s.WaitingNow))
	m.tph.Set(s.TripsPerHour)
	m.peakTPH.Set(s.PeakTripsPerHour)
	m.avail.Set(s.Availability)
	m.soc.Set(s.MeanSoC)

	for i := range m.shardCycles {
		m.shardCycles[i].Add(f.shardCycles[i] - m.prevCycles[i])
		m.prevCycles[i] = f.shardCycles[i]
		m.shardTrips[i].Add(f.shardTrips[i] - m.prevTrips[i])
		m.prevTrips[i] = f.shardTrips[i]
	}
}
