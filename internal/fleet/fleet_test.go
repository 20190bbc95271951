package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/nn"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/sim"
	"sov/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// cheapVehicle is a reduced-rate per-vehicle config for fleet tests: the
// determinism and dispatch properties under test do not depend on the
// deployed control rates, and the full-rate template makes multi-config
// matrices too slow for tier-1.
func cheapVehicle() core.Config {
	cfg := core.DefaultConfig()
	cfg.ControlRate = 5
	cfg.PhysicsRate = 25
	cfg.ReactiveRate = 10
	cfg.Quant = false
	return cfg
}

func testConfig(vehicles int) Config {
	cfg := DefaultConfig()
	cfg.Vehicles = vehicles
	cfg.Regions = 2
	cfg.Shards = 4
	cfg.Seed = 7
	cfg.Vehicle = cheapVehicle()
	cfg.DemandPerHour = 1800 // ~0.5 riders/region-second: trips happen fast
	cfg.TripMinM = 30
	cfg.TripMaxM = 120
	return cfg
}

func TestSplitSeedStreamsIndependent(t *testing.T) {
	seen := map[int64]string{}
	record := func(who string, s int64) {
		if s == 0 {
			t.Fatalf("%s: zero seed", who)
		}
		if prev, ok := seen[s]; ok {
			t.Fatalf("seed collision between %s and %s", prev, who)
		}
		seen[s] = who
	}
	for i := int64(0); i < 1000; i++ {
		record("vehicle", splitSeed(1, streamVehicle, i))
	}
	for r := int64(0); r < 32; r++ {
		record("world", splitSeed(1, streamRegionWorld, r))
		record("demand", splitSeed(1, streamDemand, r))
	}
	// Stream k must not depend on fleet shape: same triple, same seed.
	if splitSeed(1, streamVehicle, 17) != splitSeed(1, streamVehicle, 17) {
		t.Fatal("splitSeed is not a pure function")
	}
	// Different fleet seeds must decorrelate the whole family.
	if splitSeed(1, streamVehicle, 0) == splitSeed(2, streamVehicle, 0) {
		t.Fatal("fleet seed does not propagate")
	}
}

func TestFIFOReusesCapacity(t *testing.T) {
	var q fifo
	for round := 0; round < 3; round++ {
		for i := int32(0); i < 10; i++ {
			q.push(i)
		}
		for i := int32(0); i < 10; i++ {
			if q.peek() != i {
				t.Fatalf("peek = %d, want %d", q.peek(), i)
			}
			if got := q.pop(); got != i {
				t.Fatalf("pop = %d, want %d", got, i)
			}
		}
		if q.len() != 0 {
			t.Fatalf("len = %d after drain", q.len())
		}
		if cap(q.idx) > 16 {
			t.Fatalf("fifo grew to cap %d; drain should reset for reuse", cap(q.idx))
		}
	}
}

func TestPoissonDeterministicAndCalibrated(t *testing.T) {
	a, b := sim.NewRNG(3), sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		if poisson(a, 0.7) != poisson(b, 0.7) {
			t.Fatal("same stream, different draws")
		}
	}
	rng := sim.NewRNG(5)
	const n, lambda = 20000, 0.8
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.03 {
		t.Fatalf("poisson mean = %.3f, want ~%.1f", mean, lambda)
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("lambda 0 must yield 0")
	}
}

func TestRingGeometry(t *testing.T) {
	const perim = 1000.0
	if got := ringPos(900, 250, perim); math.Abs(got-150) > 1e-9 {
		t.Fatalf("ringPos wrap = %v, want 150", got)
	}
	if got := ringDist(800, 100, perim); math.Abs(got-300) > 1e-9 {
		t.Fatalf("ringDist wrap = %v, want 300", got)
	}
	if got := ringDist(100, 800, perim); math.Abs(got-700) > 1e-9 {
		t.Fatalf("ringDist forward = %v, want 700", got)
	}
}

// TestDispatchInvariants drives a small fleet and checks every recorded
// assignment: vehicle in the rider's region, idle at assignment time, and
// riders of one region leave the queue in arrival (seq) order.
func TestDispatchInvariants(t *testing.T) {
	cfg := testConfig(16)
	f := New(cfg)
	totalAssigned := 0
	lastSeq := map[int32]int64{}
	for e := 0; e < 30; e++ {
		f.Step()
		for _, a := range f.log {
			if a.kind != telemetry.KindAssign {
				continue
			}
			u := f.units[a.vehicle]
			if u.state != stateToPickup {
				t.Fatalf("epoch %d: assigned vehicle %d not heading to pickup", f.epoch, a.vehicle)
			}
			if u.rider < 0 || f.riders[u.rider].seq != a.rider {
				t.Fatalf("epoch %d: assignment/rider mismatch", f.epoch)
			}
			rg := u.region
			if a.rider <= lastSeq[rg] {
				t.Fatalf("epoch %d: region %d dispatched rider %d after %d (FIFO broken)",
					f.epoch, rg, a.rider, lastSeq[rg])
			}
			lastSeq[rg] = a.rider
			totalAssigned++
		}
	}
	if totalAssigned == 0 {
		t.Fatal("no assignments in 30 s at 0.5 riders/region-second")
	}
	s := f.Summarize()
	if s.TripsAssigned != int64(totalAssigned) {
		t.Fatalf("summary assigned %d, counted %d", s.TripsAssigned, totalAssigned)
	}
	if s.RidersArrived < s.TripsAssigned {
		t.Fatal("assigned more riders than arrived")
	}
	if s.TripsCompleted > s.TripsAssigned {
		t.Fatal("completed more trips than assigned")
	}
}

// TestRechargeCycle starts the fleet nearly empty so vehicles hit the
// charger: availability must dip below 1 and the pack must refill.
func TestRechargeCycle(t *testing.T) {
	cfg := testConfig(8)
	cfg.DemandPerHour = 0
	cfg.InitialSoCMin, cfg.InitialSoCMax = 0.15, 0.21
	cfg.RechargeSoC = 0.20
	cfg.FullSoC = 0.30
	cfg.ChargeRateKW = 50 // compress the recharge cycle into the test horizon
	f := New(cfg)
	sawCharging := false
	for e := 0; e < 240; e++ {
		f.Step()
		if f.Summarize().Charging > 0 {
			sawCharging = true
		}
	}
	s := f.Summarize()
	if !sawCharging {
		t.Fatal("no vehicle ever charged despite starting at ~22% SoC")
	}
	if s.Availability >= 1 {
		t.Fatal("availability should reflect charging downtime")
	}
	if s.Halted != 0 {
		t.Fatalf("%d vehicles died; the charger must outrun the drive load", s.Halted)
	}
	if s.MeanSoC <= 0.21 {
		t.Fatalf("mean SoC %.3f never recovered", s.MeanSoC)
	}
}

func runFleetTrace(t *testing.T, cfg Config, workers int, horizon time.Duration) string {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	var buf bytes.Buffer
	cfg.Trace = &buf
	New(cfg).Run(horizon)
	return buf.String()
}

// TestShardSplitCoversEveryVehicle checks that for every vehicle count
// 1–40 on 1–8 shards the shard ranges partition the vehicles in id order,
// one contiguous ceil-sized block each. Counts whose blocks run out before
// the last shard (10 vehicles on 8 shards) leave the trailing shards
// empty; a perceiving fleet of such a count once sliced past its vehicles
// and panicked, so those fleets are built and their shards checked too.
func TestShardSplitCoversEveryVehicle(t *testing.T) {
	for v := 1; v <= 40; v++ {
		for shards := 1; shards <= 8; shards++ {
			size, next := (v+shards-1)/shards, 0
			for s := 0; s < shards; s++ {
				lo, hi := shardBounds(s, v, shards)
				if lo != next || hi < lo || hi-lo > size {
					t.Fatalf("%d vehicles on %d shards: shard %d is [%d, %d) after [.., %d)", v, shards, s, lo, hi, next)
				}
				next = hi
			}
			if next != v {
				t.Fatalf("%d vehicles on %d shards: shards cover %d vehicles", v, shards, next)
			}
		}
	}
	for v := 9; v <= 13; v++ {
		cfg := testConfig(v)
		cfg.Regions = 1
		cfg.Shards = 8
		cfg.PerceptionEvery = 1
		f := New(cfg)
		var got []*unit
		for _, sh := range f.shards {
			if len(sh.inputs) != len(sh.units) {
				t.Fatalf("%d vehicles: a shard holds %d units and %d inputs", v, len(sh.units), len(sh.inputs))
			}
			got = append(got, sh.units...)
		}
		if !slices.Equal(got, f.units) {
			t.Fatalf("%d vehicles on 8 shards: perception shards do not partition the fleet in id order", v)
		}
		f.Step()
	}
}

// TestConcurrentShardsRace is the scratch-aliasing regression test
// (satellite: 64 vehicles advancing concurrently under -race, with the
// batched perception clones active so shared-weight scratch is exercised).
// Sibling clones then forward two different input shapes at once, swapping
// shapes every pass: each conv layer's padded buffer and tap table are
// rebuilt on a shape change, which -race reports if ShareClone aliased them.
func TestConcurrentShardsRace(t *testing.T) {
	cfg := testConfig(64)
	cfg.Regions = 4
	cfg.Shards = 8
	cfg.PerceptionEvery = 1
	defer parallel.SetWorkers(parallel.SetWorkers(8))
	f := New(cfg)
	for e := 0; e < 5; e++ {
		f.Step()
	}
	if f.Summarize().Cycles == 0 {
		t.Fatal("no control cycles captured")
	}
	s := f.Summarize()
	if s.Detections == 0 {
		t.Fatal("batched perception produced no detections over 5 epochs x 64 vehicles")
	}

	var inputs [2]*nn.Tensor
	var want [2][]int8
	for i, hw := range [][2]int{{batchInH, batchInW}, {48, 24}} {
		inputs[i] = nn.NewTensor(1, hw[0], hw[1])
		fillInput(inputs[i].Data, i, 3, 5)
		want[i] = append([]int8(nil), f.shards[2].model.ForwardRaw(inputs[i]).Data...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := f.shards[g].model
			for pass := 0; pass < 6; pass++ {
				i := (g + pass) % 2
				raw := model.ForwardRaw(inputs[i])
				if !slices.Equal(raw.Data, want[i]) {
					t.Errorf("clone %d pass %d: %dx%d output differs from the serial forward", g, pass, inputs[i].H, inputs[i].W)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestZeroAllocEpochSteadyState is the substrate's allocation gate: once
// warm, Step (advance + perception + settle + demand + dispatch + metrics +
// trace) allocates nothing at one worker, and at four workers nothing
// beyond what its two top-level fan-outs cost by themselves — everything
// nested inside them (per-vehicle perception Do, per-layer conv/pool/decode
// For) runs inline and allocation-free.
func TestZeroAllocEpochSteadyState(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	var atOne float64
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		cfg := testConfig(16) // two advance tiles: the vehicle fan-out really fans out
		cfg.PerceptionEvery = 1
		cfg.Trace = nullWriter{}
		f := New(cfg)
		f.AttachMetrics(obs.NewRegistry())
		// Warmup is long: beyond the obvious arenas (riders, queues, NN
		// scratch, trace buffer) the per-vehicle event free lists settle over
		// a few hundred epochs before the loop goes fully heap-silent.
		for e := 0; e < 300; e++ {
			f.Step()
		}
		avg := testing.AllocsPerRun(30, f.Step)
		if workers == 1 {
			if atOne = avg; avg > 0 {
				t.Fatalf("fleet epoch allocates %.1f times in steady state at one worker, want 0", avg)
			}
			continue
		}
		bare := testing.AllocsPerRun(30, func() { parallel.For(workers, 1, func(int, int) {}) })
		if avg > atOne+2*bare {
			t.Fatalf("fleet epoch allocates %.1f times at %d workers, want <= %.1f (one worker) + 2 x %.1f (a bare fan-out)", avg, workers, atOne, bare)
		}
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestMetricsGolden pins the fleet metrics exposition: bounded per-shard
// cardinality, stable ordering, stable names.
func TestMetricsGolden(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	cfg := testConfig(16)
	reg := obs.NewRegistry()
	f := New(cfg)
	f.AttachMetrics(reg)
	f.Run(20 * time.Second)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fleet_metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fleet exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestThousandVehicles is the scale smoke: 1000 vehicles advance one epoch
// with identical traces at 1 and 8 workers. Skipped under -short.
func TestThousandVehicles(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-vehicle epoch is slow on tier-1 budgets")
	}
	cfg := testConfig(1000)
	cfg.Regions = 8
	cfg.Shards = 16
	a := runFleetTrace(t, cfg, 1, time.Second)
	b := runFleetTrace(t, cfg, 8, time.Second)
	if a == "" || a != b {
		t.Fatal("1000-vehicle epoch trace is empty or differs between 1 and 8 workers")
	}
}

// TestNewRejectsUnusableConfig: DefaultConfig is the only table of
// defaults, so New refuses a field no usable fleet has instead of quietly
// filling in a value of its own. The message names the field.
func TestNewRejectsUnusableConfig(t *testing.T) {
	for _, c := range []struct {
		field string
		tweak func(*Config)
	}{
		{"Regions", func(c *Config) { c.Regions = 0 }},
		{"Epoch", func(c *Config) { c.Epoch = -time.Second }},
		{"Shards", func(c *Config) { c.Shards = 0 }},
		{"RegionSideM", func(c *Config) { c.RegionSideM = 0 }},
		{"ChargeRateKW", func(c *Config) { c.ChargeRateKW = -1 }},
		{"InitialSoCMax", func(c *Config) { c.InitialSoCMin, c.InitialSoCMax = 0, 0 }},
	} {
		t.Run(c.field, func(t *testing.T) {
			cfg := testConfig(4)
			c.tweak(&cfg)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.field) {
					t.Fatalf("New accepted %s out of range (recovered %v), want a panic naming it", c.field, r)
				}
			}()
			New(cfg)
		})
	}
}

// TestEpochSinksAgree runs one fleet with every sink attached and checks,
// after each epoch, that the trace line, the metrics and the store's epoch
// snapshots all report that epoch's fold. The fleet starts nearly empty
// under heavy demand, so every service state occurs.
func TestEpochSinksAgree(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	cfg := testConfig(16)
	cfg.InitialSoCMin, cfg.InitialSoCMax = 0, 0.01
	cfg.RechargeSoC, cfg.FullSoC, cfg.ChargeRateKW = 0.002, 0.02, 50
	cfg.DemandPerHour = 6000
	var trace bytes.Buffer
	cfg.Trace = &trace
	store, err := telemetry.Open(t.TempDir(), telemetry.Options{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg.Cloud = telemetry.NewIngestor(store)
	f := New(cfg)
	f.AttachMetrics(obs.NewRegistry())
	var seen Summary // the most of each state any epoch held
	for e := 1; e <= 90; e++ {
		f.Step()
		s := f.Summarize()
		seen.Idle, seen.Busy = max(seen.Idle, s.Idle), max(seen.Busy, s.Busy)
		seen.Charging, seen.Halted = max(seen.Charging, s.Charging), max(seen.Halted, s.Halted)

		// The trace line: the buffer holds this epoch's alone.
		var line map[string]any
		dec := json.NewDecoder(&trace)
		dec.UseNumber()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		for k, want := range map[string]string{
			"epoch":      strconv.Itoa(e),
			"idle":       strconv.Itoa(s.Idle),
			"busy":       strconv.Itoa(s.Busy),
			"charging":   strconv.Itoa(s.Charging),
			"halted":     strconv.Itoa(s.Halted),
			"waiting":    strconv.Itoa(s.WaitingNow),
			"cycles":     strconv.FormatInt(s.Cycles, 10),
			"collisions": strconv.Itoa(s.Collisions),
			"trips":      strconv.FormatInt(s.TripsCompleted, 10),
			"arrived":    strconv.FormatInt(s.RidersArrived, 10),
			"dist_m":     strconv.FormatFloat(s.DistanceM, 'f', 3, 64),
			"soc":        strconv.FormatFloat(s.MeanSoC, 'f', 3, 64),
		} {
			if got := fmt.Sprint(line[k]); got != want {
				t.Fatalf("epoch %d: trace %s = %s, fold %s", e, k, got, want)
			}
		}

		// The metrics.
		m := f.m
		for name, got := range map[string][2]float64{
			"idle":         {m.idle.Value(), float64(s.Idle)},
			"busy":         {m.busy.Value(), float64(s.Busy)},
			"charging":     {m.charging.Value(), float64(s.Charging)},
			"halted":       {m.halted.Value(), float64(s.Halted)},
			"waiting":      {m.waiting.Value(), float64(s.WaitingNow)},
			"trips/hour":   {m.tph.Value(), s.TripsPerHour},
			"peak":         {m.peakTPH.Value(), s.PeakTripsPerHour},
			"availability": {m.avail.Value(), s.Availability},
			"soc":          {m.soc.Value(), s.MeanSoC},
			"arrived":      {float64(m.arrived.Value()), float64(s.RidersArrived)},
			"assigned":     {float64(m.assigned.Value()), float64(s.TripsAssigned)},
			"completed":    {float64(m.completed.Value()), float64(s.TripsCompleted)},
			"trip count":   {float64(m.tripS.Count()), float64(s.TripsCompleted)},
		} {
			if got[0] != got[1] {
				t.Fatalf("epoch %d: metric %s = %v, fold %v", e, name, got[0], got[1])
			}
		}

		// The store's epoch snapshots, one per vehicle at this barrier.
		ms := uint64(f.Now().Milliseconds())
		states := map[string]int{}
		var n int
		var trips int64
		var soc float64
		err := store.Scan(telemetry.Query{TMinMs: ms, TMaxMs: ms, Kinds: []telemetry.Kind{telemetry.KindEpoch}}, func(ev telemetry.Event) bool {
			var p struct {
				SoC   float64 `json:"soc"`
				State string  `json:"state"`
				Trips int64   `json:"trips"`
			}
			if err := json.Unmarshal(ev.Payload, &p); err != nil {
				t.Fatal(err)
			}
			n++
			states[p.State]++
			trips += p.Trips
			soc += p.SoC
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := [...]int{n, states["idle"], states["to-pickup"] + states["on-trip"], states["charging"], states["halted"]}; got != [...]int{s.Vehicles, s.Idle, s.Busy, s.Charging, s.Halted} {
			t.Fatalf("epoch %d: store holds %d snapshots (idle, busy, charging, halted = %v), fold %d vehicles %d/%d/%d/%d",
				e, n, got[1:], s.Vehicles, s.Idle, s.Busy, s.Charging, s.Halted)
		}
		if trips != s.TripsCompleted {
			t.Fatalf("epoch %d: store snapshots count %d trips, fold %d", e, trips, s.TripsCompleted)
		}
		// Each snapshot rounds its SoC to 4 decimals.
		if d := math.Abs(soc/float64(n) - s.MeanSoC); d > 5e-5+1e-12 {
			t.Fatalf("epoch %d: store mean SoC %.6f, fold %.6f", e, soc/float64(n), s.MeanSoC)
		}
	}
	if seen.Idle == 0 || seen.Busy == 0 || seen.Charging == 0 || seen.Halted == 0 {
		t.Fatalf("some service state never occurred (most idle/busy/charging/halted: %d/%d/%d/%d)", seen.Idle, seen.Busy, seen.Charging, seen.Halted)
	}
	if err := f.CloudErr(); err != nil {
		t.Fatal(err)
	}
}

// TestRunStopsAtTheHorizon: Run steps only whole epochs that end at or
// before the horizon, so a horizon shorter than one epoch steps nothing.
func TestRunStopsAtTheHorizon(t *testing.T) {
	cfg := testConfig(2)
	for _, c := range []struct {
		horizon time.Duration
		epochs  int
	}{
		{cfg.Epoch / 2, 0},
		{cfg.Epoch, 1},
		{5*cfg.Epoch + cfg.Epoch/2, 5},
	} {
		sum := New(cfg).Run(c.horizon)
		if sum.Epochs != c.epochs || sum.VirtualTime > c.horizon {
			t.Errorf("Run(%v): %d epochs, %v virtual; want %d epochs within the horizon",
				c.horizon, sum.Epochs, sum.VirtualTime, c.epochs)
		}
	}
}
