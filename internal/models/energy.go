package models

import (
	"fmt"
	"sort"
	"strings"
)

// The energy model is Eq. 2: the driving time lost to the power drawn by
// the autonomous-driving system,
//
//	Treduced = E/Pv − E/(Pv + Pad),
//
// over the deployed vehicle's parameters: a 6 kWh battery and a 0.6 kW
// average vehicle draw (10 h driving time baseline).
const (
	// CapacityKWh is the battery capacity E in kilowatt-hours.
	CapacityKWh float64 = 6
	// VehiclePowerKW is Pv, the average power of the vehicle itself
	// (without autonomous driving), in kW.
	VehiclePowerKW float64 = 0.6
)

// DrivingTimeHours returns the driving time on a single charge when the
// autonomous-driving system draws padKW kilowatts.
func DrivingTimeHours(padKW float64) float64 {
	return CapacityKWh / (VehiclePowerKW + padKW)
}

// DepotChargeRateKW is the nominal depot charger power for the deployed
// fleet: a level-2-class 3 kW feed, which refills the 6 kWh pack in about
// two hours — the recharge-downtime constant the fleet dispatcher's
// availability metric is built on.
const DepotChargeRateKW = 3.0

// ReducedDrivingTimeHours implements Eq. 2.
func ReducedDrivingTimeHours(padKW float64) float64 {
	return CapacityKWh/VehiclePowerKW - DrivingTimeHours(padKW)
}

// RevenueLossPercent converts a driving-time reduction into percent of an
// operating day of the given length (the paper's +31 W idle server →
// 0.3 h → 3% of a 10 h day).
func RevenueLossPercent(padBeforeKW, padAfterKW, dayHours float64) float64 {
	delta := DrivingTimeHours(padBeforeKW) - DrivingTimeHours(padAfterKW)
	return 100 * delta / dayHours
}

// PowerComponent is one row of the Table I power breakdown.
type PowerComponent struct {
	Name     string
	PowerW   float64
	Quantity int
}

// TotalW returns PowerW * Quantity.
func (c PowerComponent) TotalW() float64 { return c.PowerW * float64(c.Quantity) }

// powerBudget is the autonomous-driving power breakdown of Table I as
// measured on the deployed vehicles: the main CPU+GPU server (118 W dynamic
// / 31 W idle), the embedded vision module (FPGA + cameras/IMU/GPS, 11 W),
// six radars (13 W total), and eight sonars (2 W total), for a 175 W PAD
// total. The server row uses its average (dynamic) figure; idle is tracked
// separately by callers that need it (e.g. the "+1 server idle" point of
// Fig. 3b).
var powerBudget = []PowerComponent{
	{Name: "Main computing server (CPU+GPU), dynamic", PowerW: 118, Quantity: 1},
	{Name: "Main computing server (CPU+GPU), idle overhead", PowerW: 31, Quantity: 1},
	{Name: "Embedded vision module (FPGA+cameras/IMU/GPS)", PowerW: 11, Quantity: 1},
	{Name: "Radar", PowerW: 13.0 / 6.0, Quantity: 6},
	{Name: "Sonar", PowerW: 2.0 / 8.0, Quantity: 8},
}

// Constants for the LiDAR comparison of Table I / Fig. 3b.
const (
	// LongRangeLiDARPowerW is a Velodyne HDL-64E-class unit.
	LongRangeLiDARPowerW = 60.0
	// ShortRangeLiDARPowerW is a Velodyne Puck-class unit.
	ShortRangeLiDARPowerW = 8.0
	// ServerIdlePowerW is the idle draw of one on-vehicle server.
	ServerIdlePowerW = 31.0
	// ServerDynamicPowerW is the loaded draw of one on-vehicle server.
	ServerDynamicPowerW = 118.0
)

// PowerBudgetW sums the Table I rows: PAD in watts.
func PowerBudgetW() float64 {
	sum := 0.0
	for i := range powerBudget {
		sum += powerBudget[i].TotalW()
	}
	return sum
}

// PowerBudgetKW is PowerBudgetW in kilowatts (for the energy model).
func PowerBudgetKW() float64 { return PowerBudgetW() / 1000 }

// WaymoLiDARSuite returns the 1 long-range + 4 short-range configuration
// (~92 W) the paper uses for its Fig. 3b "Use LiDAR" point.
func WaymoLiDARSuite() []PowerComponent {
	return []PowerComponent{
		{Name: "Long-range LiDAR", PowerW: LongRangeLiDARPowerW, Quantity: 1},
		{Name: "Short-range LiDAR", PowerW: ShortRangeLiDARPowerW, Quantity: 4},
	}
}

// RenderPowerBudget formats Table I as an aligned text table.
func RenderPowerBudget() string {
	var sb strings.Builder
	rows := make([]PowerComponent, len(powerBudget))
	copy(rows, powerBudget)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].TotalW() > rows[j].TotalW() })
	fmt.Fprintf(&sb, "%-50s %10s %5s %10s\n", "Component", "Power (W)", "Qty", "Total (W)")
	for _, c := range rows {
		fmt.Fprintf(&sb, "%-50s %10.1f %5d %10.1f\n", c.Name, c.PowerW, c.Quantity, c.TotalW())
	}
	fmt.Fprintf(&sb, "%-50s %10s %5s %10.1f\n", "Total for AD (PAD)", "", "", PowerBudgetW())
	return sb.String()
}
