// Command sovmodel answers design-constraint questions from the Sec. III
// analytical models: latency budgets, driving-time impact, cost, and the
// thermal envelope. A non-physical flag (a non-positive speed or
// deceleration, a negative power) is an error: it exits 2 like a malformed
// one.
//
// Usage:
//
//	sovmodel latency -distance 5 [-speed 5.6] [-decel 4]
//	sovmodel energy  -pad 0.175 [-extra 31] [-day 10]
//	sovmodel cost
//	sovmodel thermal [-load 175] [-ambient 40]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"sov/internal/models"
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		return
	}
	switch args[0] {
	case "latency":
		fs := flag.NewFlagSet("latency", flag.ExitOnError)
		distance := fs.Float64("distance", 5, "object distance in meters")
		speed := fs.Float64("speed", 5.6, "vehicle speed m/s")
		decel := fs.Float64("decel", 4, "brake deceleration m/s2")
		_ = fs.Parse(args[1:])
		m := models.DefaultLatencyModel()
		m.Speed = *speed
		m.BrakeDecel = *decel
		if err := m.Validate(); err != nil {
			fail(err)
		}
		budget := m.ComputingBudget(*distance)
		fmt.Printf("braking distance: %.2f m\n", m.BrakingDistance())
		if budget < 0 {
			fmt.Printf("object at %.1f m is inside the braking floor: unavoidable by computing\n", *distance)
			return
		}
		fmt.Printf("computing budget to avoid an object at %.1f m: %v\n", *distance, budget.Round(time.Millisecond))
		fmt.Printf("max safe speed at 164 ms Tcomp for that distance: %.2f m/s\n",
			m.SpeedForBudget(164*time.Millisecond, *distance))
	case "energy":
		fs := flag.NewFlagSet("energy", flag.ExitOnError)
		pad := fs.Float64("pad", models.PowerBudgetKW(), "AD power in kW")
		extra := fs.Float64("extra", 0, "additional watts (e.g. 31 for an idle server)")
		day := fs.Float64("day", 10, "operating hours per day")
		_ = fs.Parse(args[1:])
		if *pad < 0 || *extra < 0 {
			fail(errors.New("-pad and -extra must not be negative"))
		}
		total := *pad + *extra/1000
		fmt.Printf("driving time at PAD=%.3f kW: %.2f h (reduced by %.2f h)\n",
			total, models.DrivingTimeHours(total), models.ReducedDrivingTimeHours(total))
		if *extra != 0 {
			fmt.Printf("the extra %.0f W costs %.1f%% of a %.0f h operating day\n",
				*extra, models.RevenueLossPercent(*pad, total, *day), *day)
		}
	case "cost":
		fmt.Print(models.DefaultCameraVehicleCost().Render())
		tco := models.DefaultTCO()
		fmt.Printf("TCO: $%.0f/year, $%.2f per trip\n", tco.AnnualUSD(), tco.CostPerTripUSD())
	case "thermal":
		fs := flag.NewFlagSet("thermal", flag.ExitOnError)
		load := fs.Float64("load", models.PowerBudgetW(), "compute load in watts")
		ambient := fs.Float64("ambient", 40, "ambient temperature in C")
		_ = fs.Parse(args[1:])
		if *load < 0 {
			fail(errors.New("-load must not be negative"))
		}
		fmt.Printf("steady temperature at %.0f W, %.0f C ambient: %.1f C (ceiling %.0f C)\n",
			*load, *ambient, models.SteadyTempC(*load, *ambient), models.MaxComponentTempC)
		fmt.Printf("headroom: %.0f W; max safe load: %.0f W\n",
			models.HeadroomW(*load, *ambient), models.MaxLoadW(*ambient))
		if !models.WithinLimits(*load, *ambient) {
			fmt.Println("WARNING: load exceeds the thermal envelope")
		}
	default:
		usage()
	}
}

// fail reports a non-physical flag value and exits with flag's usage-error
// status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "sovmodel:", err)
	os.Exit(2)
}

func usage() {
	fmt.Println("usage: sovmodel {latency|energy|cost|thermal} [flags]")
}
