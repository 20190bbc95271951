// Command sovfleet runs the fleet-scale simulation: N deterministic SoV
// instances sharded across the worker pool, advancing in lockstep
// virtual-time epochs with seeded trip demand, nearest-idle dispatch, and
// battery/recharge state (DESIGN.md §11). Output is byte-identical for any
// -workers count.
//
// Usage:
//
//	sovfleet [-vehicles 1000] [-regions 8] [-duration 10m] [-epoch 1s]
//	         [-seed 1] [-workers N] [-demand 120] [-quant] [-sched]
//	         [-perception 0] [-trace fleet.jsonl] [-metrics fleet.prom]
//	         [-hist] [-cloud telemetry-dir]
//
// With -cloud, every epoch's barrier streams per-vehicle events into the
// LSM telemetry store at that directory (DESIGN.md §14); query it with
// sovquery. The store's on-disk state is byte-identical for any -workers
// count.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sov/internal/fleet"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/telemetry"
)

//sovlint:wallclock host-throughput report only; simulation results are virtual-time
func main() {
	vehicles := flag.Int("vehicles", 1000, "fleet size")
	regions := flag.Int("regions", 8, "independent service regions")
	duration := flag.Duration("duration", 10*time.Minute, "virtual horizon")
	epoch := flag.Duration("epoch", time.Second, "lockstep epoch length")
	seed := flag.Int64("seed", 1, "fleet seed (splits into per-vehicle/region/demand streams)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker count (output is identical for any value)")
	demand := flag.Float64("demand", 120, "mean rider arrivals per region-hour")
	quant := flag.Bool("quant", false, "back per-vehicle perception with the int8 kernels")
	sched := flag.Bool("sched", false, "attach the online heterogeneous scheduler to every vehicle")
	perception := flag.Int("perception", 0, "run the batched cross-vehicle quantized detector every k epochs (0 = off)")
	tracePath := flag.String("trace", "", "write the per-epoch JSONL fleet trace here (- for stdout)")
	metricsPath := flag.String("metrics", "", "write the fleet metrics exposition here (.json for JSON, else Prometheus text)")
	hist := flag.Bool("hist", false, "print the rider wait-time histogram")
	cloudDir := flag.String("cloud", "", "ingest per-epoch fleet telemetry into the LSM store at this directory")
	flag.Parse()
	if *vehicles < 1 {
		fail(fmt.Errorf("-vehicles %d: need at least one vehicle", *vehicles))
	}
	if *demand < 0 {
		fail(fmt.Errorf("-demand %v: arrivals per region-hour must not be negative", *demand))
	}
	if *regions < 1 {
		fail(fmt.Errorf("-regions %d: need at least one region", *regions))
	}
	if *epoch <= 0 {
		fail(fmt.Errorf("-epoch %v: the lockstep epoch must be positive", *epoch))
	}
	if *duration <= 0 {
		fail(fmt.Errorf("-duration %v: the virtual horizon must be positive", *duration))
	}
	if *perception < 0 {
		fail(fmt.Errorf("-perception %d: need an epoch count, or 0 for off", *perception))
	}

	parallel.SetWorkers(*workers)

	cfg := fleet.DefaultConfig()
	cfg.Vehicles = *vehicles
	cfg.Regions = *regions
	cfg.Epoch = *epoch
	cfg.Seed = *seed
	cfg.DemandPerHour = *demand
	cfg.PerceptionEvery = *perception
	cfg.Vehicle.Quant = *quant
	cfg.Vehicle.Sched = *sched

	var traceF *os.File // nil when the trace goes to stdout
	var traceW *bufio.Writer
	if *tracePath != "" {
		out := os.Stdout
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				os.Exit(1)
			}
			traceF, out = f, f
		}
		traceW = bufio.NewWriterSize(out, 1<<16)
		cfg.Trace = traceW
	}

	var store *telemetry.Store
	var ingest *telemetry.Ingestor
	if *cloudDir != "" {
		var err error
		store, err = telemetry.Open(*cloudDir, telemetry.DefaultOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, "cloud:", err)
			os.Exit(1)
		}
		ingest = telemetry.NewIngestor(store)
		cfg.Cloud = ingest
	}

	var reg *obs.Registry
	fl := fleet.New(cfg)
	if *metricsPath != "" || store != nil {
		reg = obs.NewRegistry()
		fl.AttachMetrics(reg)
	}

	start := time.Now()
	sum := fl.Run(*duration)
	wall := time.Since(start)

	if store != nil {
		if err := fl.CloudErr(); err != nil {
			fmt.Fprintln(os.Stderr, "cloud:", err)
			os.Exit(1)
		}
		// Final fleet-wide metrics snapshot rides along as the last event.
		var mbuf bytes.Buffer
		if err := reg.WriteJSON(&mbuf); err == nil {
			ingest.IngestMetrics(fl.Now(), mbuf.Bytes())
		}
		if err := ingest.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "cloud:", err)
			os.Exit(1)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cloud:", err)
			os.Exit(1)
		}
		st := store.Stats()
		fmt.Printf("cloud: %d events ingested into %s (%d flushes, %d compactions, write amp %.2f)\n",
			st.Events, *cloudDir, st.Flushes, st.Compactions, st.WriteAmplification())
	}

	fmt.Print(sum.Render())
	rate := float64(sum.Vehicles) * sum.VirtualTime.Seconds() / wall.Seconds()
	fmt.Printf("host: %v wall for %v virtual x %d vehicles (%.0f vehicle-seconds/sec, %d workers)\n",
		wall.Round(time.Millisecond), sum.VirtualTime, sum.Vehicles, rate, parallel.Workers())
	if *hist {
		fmt.Print(fl.WaitHistogram(48))
	}

	if reg != nil && *metricsPath != "" {
		if err := reg.WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
	}
	// The trace is written in full or the run fails: a write, flush or
	// close error exits 1.
	if traceW != nil {
		err := traceW.Flush()
		if traceF != nil {
			err = cmp.Or(err, traceF.Close())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
	}
}

// fail reports a non-physical flag value and exits with flag's usage-error
// status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "sovfleet:", err)
	os.Exit(2)
}
