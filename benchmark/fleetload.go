package main

import (
	"fmt"
	"os"
	"time"

	"sov/internal/core"
	"sov/internal/fleet"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/telemetry"
)

// fleetLoad steps a 200-vehicle fleet in lockstep 1 s epochs. It is the
// only workload where the parallel fan-out, the cross-vehicle int8 batched
// perception (every 4th epoch), the fleet barrier and dispatcher, and cloud
// emission into a telemetry store all run, and the only multi-core one. The
// vehicles use the reduced-rate template of BenchmarkFleetThroughput so the
// substrate, not 100 Hz physics, carries the epoch.
type fleetLoad struct {
	p        params
	vehicles int
	epochs   int // per slice; a multiple of PerceptionEvery so slices match

	dir   string
	store *telemetry.Store
	f     *fleet.Fleet
	trace *hashWriter
	reg   *obs.Registry

	halted int // halted vehicles already counted as failures
}

const fleetWarmEpochs = 3

func newFleetLoad(p params) *fleetLoad {
	return &fleetLoad{p: p, vehicles: p.scaled(200, 24), epochs: p.scaled(8, 4)}
}

func (l *fleetLoad) name() string { return "fleet" }

func (l *fleetLoad) fleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Vehicles = l.vehicles
	cfg.Regions = 8
	cfg.Shards = 8
	cfg.Seed = l.p.seed
	cfg.Epoch = time.Second
	cfg.DemandPerHour = 1200
	cfg.PerceptionEvery = 4
	v := core.DefaultConfig()
	v.ControlRate, v.PhysicsRate, v.RadarRate, v.ReactiveRate = 2, 10, 5, 5
	v.Pipeline, v.PipelineForce, v.Quant, v.Sched = false, false, false, false
	cfg.Vehicle = v
	return cfg
}

func (l *fleetLoad) config() any {
	cfg := l.fleetConfig()
	return map[string]any{
		"fleet":            cfg,
		"telemetry":        telemetry.DefaultOptions(),
		"workers":          l.p.workers,
		"warm_up_epochs":   fleetWarmEpochs,
		"epochs_per_slice": l.epochs,
	}
}

// setUp opens the store, builds the fleet with every sink attached and
// steps the warm-up epochs that fill arenas, queues and event free lists.
func (l *fleetLoad) setUp() (map[string]float64, error) {
	l.tearDown()
	parallel.SetWorkers(l.p.workers)
	dir, err := os.MkdirTemp(l.p.tmpRoot, "fleet-")
	if err != nil {
		return nil, err
	}
	l.dir = dir
	if l.store, err = telemetry.Open(dir, telemetry.DefaultOptions()); err != nil {
		return nil, err
	}
	cfg := l.fleetConfig()
	l.trace = newHashWriter()
	cfg.Trace = l.trace
	cfg.Cloud = telemetry.NewIngestor(l.store)
	t0 := now()
	l.f = fleet.New(cfg)
	times := map[string]float64{"fleet.new_ms": millis(since(t0))}
	l.reg = obs.NewRegistry()
	l.f.AttachMetrics(l.reg)
	for e := 0; e < fleetWarmEpochs; e++ {
		l.f.Step()
	}
	l.halted = 0
	return times, l.f.CloudErr()
}

func (l *fleetLoad) tearDown() {
	if l.store != nil {
		_ = l.store.Close() // the store is discarded with its directory
		l.store = nil
	}
	if l.dir != "" {
		_ = os.RemoveAll(l.dir)
		l.dir = ""
	}
	l.f = nil
}

// digest covers the fleet trace and the store's manifest and counters,
// which are byte-identical for any worker count.
func (l *fleetLoad) memoryBound() bool { return false }

func (l *fleetLoad) digest() uint64 {
	st := l.store.Stats()
	h := mix(l.trace.Sum64(), uint64(st.Events), uint64(st.UserBytes), uint64(st.WALBytes), uint64(st.RunBytesWritten))
	if mb, err := l.store.ManifestBytes(); err == nil {
		h = mix(h, digestOf(mb))
	}
	return h
}

// slice steps the fleet through its epochs, timing each Step.
func (l *fleetLoad) slice(i int, rec *recorder, acc *accum) error {
	parallel.SetWorkers(l.p.workers)
	root := rec.begin("slice", i)
	defer rec.end(root)
	before := l.store.Stats()
	firstOp := len(acc.opUS)
	bytes0, mallocs0 := allocNow(false)
	t0 := now()
	for e := 0; e < l.epochs; e++ {
		a := now()
		l.f.Step()
		d := since(a)
		acc.opUS = append(acc.opUS, micros(d))
		rec.leaf("fleet.step", l.f.Epochs(), a, d)
	}
	acc.cur.busy = since(t0)
	acc.cur.partsUS = acc.opUS[firstOp:]
	// Allocation is counted around the Steps only: the oracle scan below
	// grows with the store and is the benchmark's own work.
	bytes1, mallocs1 := allocNow(false)
	acc.cur.mallocs = mallocs1 - mallocs0
	acc.cur.allocMB = float64(bytes1-bytes0) / (1 << 20)
	acc.cur.work = float64(l.vehicles*l.epochs) * l.fleetConfig().Epoch.Seconds()

	acc.ops += int64(l.vehicles * l.epochs)
	sum := l.f.Summarize()
	if sum.Halted > l.halted {
		acc.fail("vehicle_halted", int64(sum.Halted-l.halted))
		l.halted = sum.Halted
	}
	// A collision here is simulated behaviour, not a failed operation: the
	// reduced-rate template reacts at 5 Hz, and some seeds do bump a kerb.
	if err := l.f.CloudErr(); err != nil {
		acc.fail("cloud_error", int64(l.vehicles*l.epochs))
		return fmt.Errorf("cloud uplink: %w", err)
	}
	// Oracle: the barrier emits exactly one epoch snapshot per vehicle per
	// epoch, so the store must hold vehicles × epochs of them. A plain Scan
	// counts them: a kind query would build the secondary index and make
	// every later epoch's ingest pay for it.
	var n int64
	err := l.store.Scan(telemetry.Query{}, func(e telemetry.Event) bool {
		if e.Key.Kind == telemetry.KindEpoch {
			n++
		}
		return true
	})
	if err != nil {
		acc.fail("store_error", 1)
		return fmt.Errorf("scan: %w", err)
	}
	if want := int64(l.vehicles * l.f.Epochs()); n != want {
		acc.fail("epoch_event_count", 1)
	}
	after := l.store.Stats()
	acc.counts["epochs"] += float64(l.epochs)
	acc.counts["cloud_events"] += float64(after.Events - before.Events)
	acc.counts["trips_completed"] = float64(sum.TripsCompleted)
	acc.counts["halted"] = float64(sum.Halted)
	acc.counts["cycles"] = float64(sum.Cycles)
	acc.counts["write_amp"] = after.WriteAmplification()
	return nil
}
