// Command sovmodel answers design-constraint questions from the Sec. III
// analytical models: latency budgets, driving-time impact, and cost.
//
// Usage:
//
//	sovmodel latency -distance 5 [-speed 5.6] [-decel 4]
//	sovmodel energy  -pad 0.175 [-extra 31]
//	sovmodel cost
package main

import (
	"flag"
	"fmt"
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
		pad := fs.Float64("pad", models.DefaultPowerBudget().TotalKW(), "AD power in kW")
		extra := fs.Float64("extra", 0, "additional watts (e.g. 31 for an idle server)")
		day := fs.Float64("day", 10, "operating hours per day")
		_ = fs.Parse(args[1:])
		em := models.DefaultEnergyModel()
		total := *pad + *extra/1000
		fmt.Printf("driving time at PAD=%.3f kW: %.2f h (reduced by %.2f h)\n",
			total, em.DrivingTimeHours(total), em.ReducedDrivingTimeHours(total))
		if *extra != 0 {
			fmt.Printf("the extra %.0f W costs %.1f%% of a %.0f h operating day\n",
				*extra, em.RevenueLossPercent(*pad, total, *day), *day)
		}
	case "cost":
		fmt.Print(models.DefaultCameraVehicleCost().Render())
		tco := models.DefaultTCO()
		fmt.Printf("TCO: $%.0f/year, $%.2f per trip\n", tco.AnnualUSD(), tco.CostPerTripUSD())
	case "thermal":
		fs := flag.NewFlagSet("thermal", flag.ExitOnError)
		load := fs.Float64("load", models.DefaultPowerBudget().TotalW(), "compute load in watts")
		ambient := fs.Float64("ambient", 40, "ambient temperature in C")
		_ = fs.Parse(args[1:])
		th := models.DefaultThermalModel()
		fmt.Printf("steady temperature at %.0f W, %.0f C ambient: %.1f C (ceiling %.0f C)\n",
			*load, *ambient, th.SteadyTempC(*load, *ambient), th.MaxComponentTempC)
		fmt.Printf("headroom: %.0f W; max safe load: %.0f W\n",
			th.HeadroomW(*load, *ambient), th.MaxLoadW(*ambient))
		if !th.WithinLimits(*load, *ambient) {
			fmt.Println("WARNING: load exceeds the thermal envelope")
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Println("usage: sovmodel {latency|energy|cost|thermal} [flags]")
}
