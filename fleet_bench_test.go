// Benchmarks for the fleet-scale simulation substrate: vehicles advanced
// per wall-clock second and epoch latency, swept over fleet size × worker
// count. scripts/bench.sh fleet turns the output into BENCH_fleet.json and
// carries the nightly --check regression gate.
package sov

import (
	"strconv"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/fleet"
	"sov/internal/parallel"
)

// benchFleetConfig uses a reduced-rate per-vehicle template: the substrate
// under test is the epoch scheduler, dispatcher, and telemetry, and the
// deployed 100 Hz physics would drown those in per-vehicle event cost
// (and push a 1000-vehicle epoch past any reasonable benchtime).
func benchFleetConfig(vehicles int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Vehicles = vehicles
	cfg.Regions = 8
	if vehicles < 8 {
		cfg.Regions = vehicles
	}
	cfg.Seed = 3
	cfg.Epoch = time.Second
	cfg.DemandPerHour = 300
	v := core.DefaultConfig()
	v.ControlRate = 2
	v.PhysicsRate = 10
	v.RadarRate = 5
	v.ReactiveRate = 5
	v.Quant = false
	cfg.Vehicle = v
	return cfg
}

// benchFleetEpoch times one lockstep epoch of the whole fleet. The
// headline metric is veh_sec/sec: vehicle-seconds of virtual time advanced
// per wall-clock second (fleet size × epoch length ÷ epoch latency).
func benchFleetEpoch(b *testing.B, vehicles, workers int) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	cfg := benchFleetConfig(vehicles)
	f := fleet.New(cfg)
	for e := 0; e < 3; e++ { // warm arenas, queues, event free lists
		f.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step()
	}
	b.StopTimer()
	virtual := float64(vehicles) * cfg.Epoch.Seconds() * float64(b.N)
	b.ReportMetric(virtual/b.Elapsed().Seconds(), "veh_sec/sec")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1000, "epoch_ms")
}

// BenchmarkFleetThroughput sweeps fleet size × worker count. Worker-count
// speedups are only expressible on a multi-core host — the snapshot
// records num_cpu next to the numbers so a single-CPU runner's flat curve
// reads as what it is.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, v := range []int{100, 1000} {
		for _, w := range []int{1, 4, 8} {
			v, w := v, w
			name := "v" + strconv.Itoa(v) + "/w" + strconv.Itoa(w)
			b.Run(name, func(b *testing.B) { benchFleetEpoch(b, v, w) })
		}
	}
}
