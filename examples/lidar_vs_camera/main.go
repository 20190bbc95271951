// LiDAR vs camera: the Sec. III-D case study end to end. Runs the
// point-cloud kernels through the cache simulator to show the memory-
// irregularity problem (Fig. 4), then compares the two sensing stacks on
// latency, power, and cost — the constraint-driven reasoning behind
// abandoning LiDAR for this vehicle class.
package main

import (
	"fmt"

	"sov/internal/cachesim"
	"sov/internal/mathx"
	"sov/internal/models"
	"sov/internal/pointcloud"
	"sov/internal/sim"
)

func main() {
	fmt.Println("== LiDAR processing irregularity (Fig. 4) ==")
	rng := sim.NewRNG(7)
	scan := pointcloud.GenerateScan(4000, 42, rng.Fork())
	moved := scan.Transform(0.03, mathx.Vec3{X: 0.3})

	// Reuse irregularity.
	tree := pointcloud.Build(scan, nil)
	est := pointcloud.Localize(tree, moved, nil, 15, 2)
	fmt.Printf("ICP aligns the moved scan back: yaw %.3f rad, shift %.2f m (the scan moved by 0.030 rad, 0.30 m)\n",
		est.Yaw, est.Trans.Norm())
	min, max := 1<<30, 0
	for _, r := range tree.Reuse {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	fmt.Printf("point reuse during ICP localization: min %d, max %d (%.0fx spread)\n",
		min, max, float64(max)/float64(min+1))

	// Memory traffic vs optimal.
	c := cachesim.New(cachesim.Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 8})
	tr := pointcloud.Build(scan, c)
	c.Reset()
	pointcloud.Localize(tr, moved, c, 10, 2)
	s := c.Stats()
	fmt.Printf("off-chip traffic: %.0fx the compulsory minimum (miss rate %.0f%%)\n\n",
		s.TrafficRatio(), 100*s.MissRate())

	fmt.Println("== Constraint comparison (camera stack vs LiDAR stack) ==")
	fmt.Printf("%-28s %-22s %s\n", "", "camera (ours)", "LiDAR")
	fmt.Printf("%-28s %-22s %s\n", "localization latency", "24 ms (FPGA VIO)", "100 ms - 1 s (CPU+GPU ICP)")
	lidarW := 0.0
	for _, comp := range models.WaymoLiDARSuite() {
		lidarW += comp.TotalW()
	}
	fmt.Printf("%-28s %-22s %.0f W\n", "sensor power", "< 1 W (4 cameras)", lidarW)
	cam := models.DefaultCameraVehicleCost()
	lid := models.DefaultLiDARVehicleCost()
	fmt.Printf("%-28s $%-21.0f $%.0f\n", "sensor cost", cam.SensorTotalUSD(), lid.SensorTotalUSD())
	fmt.Printf("%-28s $%-21.0f >$%.0f\n", "vehicle retail", cam.RetailPriceUSD, lid.RetailPriceUSD)

	base := models.PowerBudgetKW()
	fmt.Printf("%-28s %-22s %.1f h\n", "driving time (6 kWh)",
		fmt.Sprintf("%.1f h", models.DrivingTimeHours(base)),
		models.DrivingTimeHours(base+lidarW/1000))

	fmt.Println("\nDepth precision: LiDAR wins (~2 cm vs ~0.2 m) — but lane-granularity")
	fmt.Println("maneuvering (1-3 m lanes) tolerates 0.2 m, so the precision is unpurchased.")
}
