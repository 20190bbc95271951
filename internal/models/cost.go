package models

import (
	"fmt"
	"strings"
)

// CostItem is one row of the Table II cost breakdown.
type CostItem struct {
	Name     string
	PriceUSD float64
	Quantity int
}

// TotalUSD returns PriceUSD * Quantity.
func (c CostItem) TotalUSD() float64 { return c.PriceUSD * float64(c.Quantity) }

// CostModel captures the vehicle bill-of-materials view of Table II plus
// the simple TCO-style operating view sketched in Sec. VII.
type CostModel struct {
	Items []CostItem
	// RetailPriceUSD is the vehicle's selling price (sensor rows are a
	// subset of what the retail price covers).
	RetailPriceUSD float64
}

// DefaultCameraVehicleCost returns our camera-based vehicle's Table II
// rows: cameras×4 + IMU $1,000, radar×6 $3,000, sonar×8 $1,600, GPS
// $1,000, retail $70,000.
func DefaultCameraVehicleCost() CostModel {
	return CostModel{
		Items: []CostItem{
			{Name: "Cameras x4 + IMU", PriceUSD: 1000, Quantity: 1},
			{Name: "Radar", PriceUSD: 500, Quantity: 6},
			{Name: "Sonar", PriceUSD: 200, Quantity: 8},
			{Name: "GPS", PriceUSD: 1000, Quantity: 1},
		},
		RetailPriceUSD: 70000,
	}
}

// DefaultLiDARVehicleCost returns the LiDAR-based comparison rows: one
// long-range LiDAR $80,000, four short-range $4,000 each, estimated retail
// >$300,000.
func DefaultLiDARVehicleCost() CostModel {
	return CostModel{
		Items: []CostItem{
			{Name: "Long-range LiDAR", PriceUSD: 80000, Quantity: 1},
			{Name: "Short-range LiDAR", PriceUSD: 4000, Quantity: 4},
		},
		RetailPriceUSD: 300000,
	}
}

// SensorTotalUSD sums the sensor rows.
func (m CostModel) SensorTotalUSD() float64 {
	sum := 0.0
	for _, it := range m.Items {
		sum += it.TotalUSD()
	}
	return sum
}

// Render formats the cost model as an aligned text table (Table II).
func (m CostModel) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-30s %12s %5s %12s\n", "Component", "Price (USD)", "Qty", "Total (USD)")
	for _, it := range m.Items {
		fmt.Fprintf(&sb, "%-30s %12.0f %5d %12.0f\n", it.Name, it.PriceUSD, it.Quantity, it.TotalUSD())
	}
	fmt.Fprintf(&sb, "%-30s %12s %5s %12.0f\n", "Sensor subtotal", "", "", m.SensorTotalUSD())
	fmt.Fprintf(&sb, "%-30s %12s %5s %12.0f\n", "Retail price", "", "", m.RetailPriceUSD)
	return sb.String()
}

// TCO is the total-cost-of-ownership sketch from Sec. VII: vehicle capital
// cost amortized over a service life plus recurring operating costs.
type TCO struct {
	VehicleUSD        float64 // purchase price
	ServiceLifeYears  float64
	AnnualServiceUSD  float64 // maintenance, insurance, remote ops
	AnnualCloudUSD    float64 // map upkeep, model training, storage
	AnnualEnergyUSD   float64 // charging
	TripsPerDay       float64
	OperatingDaysYear float64
}

// DefaultTCO returns a plausible operating profile for the Japan tourist
// site deployment ($1/trip pricing context).
func DefaultTCO() TCO {
	return TCO{
		VehicleUSD:        70000,
		ServiceLifeYears:  5,
		AnnualServiceUSD:  6000,
		AnnualCloudUSD:    2000,
		AnnualEnergyUSD:   800,
		TripsPerDay:       60,
		OperatingDaysYear: 330,
	}
}

// AnnualUSD returns the total cost per operating year.
func (t TCO) AnnualUSD() float64 {
	capital := 0.0
	if t.ServiceLifeYears > 0 {
		capital = t.VehicleUSD / t.ServiceLifeYears
	}
	return capital + t.AnnualServiceUSD + t.AnnualCloudUSD + t.AnnualEnergyUSD
}

// CostPerTripUSD returns the break-even per-trip cost.
func (t TCO) CostPerTripUSD() float64 {
	trips := t.TripsPerDay * t.OperatingDaysYear
	if trips == 0 {
		return 0
	}
	return t.AnnualUSD() / trips
}
