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

// The total-cost-of-ownership sketch from Sec. VII: vehicle capital cost
// amortized over a service life plus recurring operating costs, at a
// plausible operating profile for the Japan tourist site deployment
// ($1/trip pricing context).
const (
	tcoVehicleUSD        float64 = 70000 // purchase price
	tcoServiceLifeYears  float64 = 5
	tcoAnnualServiceUSD  float64 = 6000 // maintenance, insurance, remote ops
	tcoAnnualCloudUSD    float64 = 2000 // map upkeep, model training, storage
	tcoAnnualEnergyUSD   float64 = 800  // charging
	tcoTripsPerDay       float64 = 60
	tcoOperatingDaysYear float64 = 330
)

// AnnualUSD returns the total cost per operating year.
func AnnualUSD() float64 {
	return tcoVehicleUSD/tcoServiceLifeYears + tcoAnnualServiceUSD + tcoAnnualCloudUSD + tcoAnnualEnergyUSD
}

// CostPerTripUSD returns the break-even per-trip cost.
func CostPerTripUSD() float64 {
	return AnnualUSD() / (tcoTripsPerDay * tcoOperatingDaysYear)
}
