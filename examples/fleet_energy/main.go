// Fleet energy and cost: the operator's view of the Sec. III models. How
// much driving time does each hardware choice cost, and what does a trip
// have to earn? Reproduces the reasoning behind Fig. 3b and Tables I/II.
package main

import (
	"fmt"

	"sov"
)

func main() {
	fmt.Println("== Power budget (Table I) ==")
	fmt.Print(sov.RenderPowerBudget())

	base := sov.PowerBudgetKW()
	fmt.Println("\n== Driving time per charge (6 kWh battery, Fig. 3b) ==")
	rows := []struct {
		name  string
		padKW float64
	}{
		{"no autonomy", 0},
		{"current system (175 W)", base},
		{"+1 server, idle (+31 W)", base + 0.031},
		{"+1 server, full load (+118 W)", base + 0.118},
		{"switch to Waymo-style LiDAR suite (+92 W)", base + 0.092},
	}
	for _, r := range rows {
		h := sov.DrivingTimeHours(r.padKW)
		fmt.Printf("%-44s %5.2f h  (lost %4.2f h/charge)\n", r.name, h, 10-h)
	}
	fmt.Printf("\nan always-on idle server costs %.1f%% of a 10 h operating day\n",
		sov.RevenueLossPercent(base, base+0.031, 10))

	fmt.Println("\n== Vehicle cost (Table II) ==")
	cam := sov.CameraVehicleCost()
	lidar := sov.LiDARVehicleCost()
	fmt.Printf("camera-based sensors: $%.0f (retail $%.0f)\n", cam.SensorTotalUSD(), cam.RetailPriceUSD)
	fmt.Printf("LiDAR-based sensors : $%.0f (retail >$%.0f)\n", lidar.SensorTotalUSD(), lidar.RetailPriceUSD)
	fmt.Printf("sensor cost ratio   : %.0fx\n", lidar.SensorTotalUSD()/cam.SensorTotalUSD())

	tco := sov.DefaultTCO()
	fmt.Printf("\n== TCO (tourist-site profile) ==\nannual: $%.0f -> break-even $%.2f per trip (site charges $1)\n",
		tco.AnnualUSD(), tco.CostPerTripUSD())
}
