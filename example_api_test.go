package sov_test

import (
	"fmt"
	"time"

	"sov"
)

// The latency model answers Sec. III design questions directly.
func ExampleLatencyModel() {
	m := sov.DefaultLatencyModel()
	fmt.Printf("braking floor: %.2f m\n", m.BrakingDistance())
	fmt.Printf("avoid from %.2f m at the 164 ms mean\n", m.AvoidableDistance(164*time.Millisecond))
	fmt.Printf("budget for a 5 m object: %v\n", m.ComputingBudget(5).Round(time.Millisecond))
	// Output:
	// braking floor: 3.92 m
	// avoid from 4.95 m at the 164 ms mean
	// budget for a 5 m object: 173ms
}

// The energy model reproduces the Fig. 3b markers.
func ExampleDrivingTimeHours() {
	pad := sov.PowerBudgetKW()
	fmt.Printf("driving time with AD: %.1f h\n", sov.DrivingTimeHours(pad))
	fmt.Printf("an idle server costs %.1f%% of a 10 h day\n",
		sov.RevenueLossPercent(pad, pad+0.031, 10))
	// Output:
	// driving time with AD: 7.7 h
	// an idle server costs 3.0% of a 10 h day
}

// The mapping explorer reproduces Fig. 8's conclusion.
func ExampleExploreMappings() {
	best := sov.ExploreMappings()[0]
	fmt.Printf("best mapping: scene understanding on %s, localization on %s (%.0f ms)\n",
		best.Mapping.SceneUnderstanding, best.Mapping.Localization,
		best.PerceptionLatency.Seconds()*1000)
	// Output:
	// best mapping: scene understanding on GPU, localization on FPGA (77 ms)
}

// Assembling and running the vehicle takes three lines.
func ExampleNewSystem() {
	world := sov.CruiseScenario(1)
	system := sov.NewSystem(sov.DefaultConfig(), world)
	report := system.Run(10 * time.Second)
	fmt.Printf("collisions: %d, throughput: %.0f Hz\n", report.Collisions, report.ThroughputHz)
	// Output:
	// collisions: 0, throughput: 10 Hz
}
