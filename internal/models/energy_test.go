package models

import (
	"math"
	"strings"
	"testing"
)

func TestDrivingTimeBaseline(t *testing.T) {
	// 6 kWh / 0.6 kW = 10 hours without AD.
	if got := DrivingTimeHours(0); math.Abs(got-10) > 1e-12 {
		t.Fatalf("baseline driving time = %v", got)
	}
}

func TestCurrentSystemDrivingTime(t *testing.T) {
	// Paper: PAD = 175 W reduces driving time from 10 h to 7.7 h.
	got := DrivingTimeHours(0.175)
	if math.Abs(got-7.74) > 0.05 {
		t.Fatalf("driving time with AD = %v, want ~7.7", got)
	}
	red := ReducedDrivingTimeHours(0.175)
	if math.Abs(red-2.26) > 0.05 {
		t.Fatalf("reduced = %v, want ~2.3", red)
	}
}

func TestAdditionalIdleServerCostsPointThreeHours(t *testing.T) {
	// Paper: +31 W idle server reduces driving time by ~0.3 h → 3% of a
	// 10 h operating day.
	base := 0.175
	withServer := base + ServerIdlePowerW/1000
	delta := DrivingTimeHours(base) - DrivingTimeHours(withServer)
	if math.Abs(delta-0.3) > 0.05 {
		t.Fatalf("idle server delta = %v h, want ~0.3", delta)
	}
	pct := RevenueLossPercent(base, withServer, 10)
	if math.Abs(pct-3) > 0.5 {
		t.Fatalf("revenue loss = %v%%, want ~3%%", pct)
	}
}

func TestLiDARSuiteCostsPointEightHours(t *testing.T) {
	// Paper: applying Waymo's LiDAR suite (~92 W) reduces driving time a
	// further ~0.8 h vs. the current system.
	lidarW := 0.0
	for _, c := range WaymoLiDARSuite() {
		lidarW += c.TotalW()
	}
	if math.Abs(lidarW-92) > 1e-9 {
		t.Fatalf("LiDAR suite power = %v W, want 92", lidarW)
	}
	delta := DrivingTimeHours(0.175) - DrivingTimeHours(0.175+lidarW/1000)
	if math.Abs(delta-0.8) > 0.1 {
		t.Fatalf("LiDAR delta = %v h, want ~0.8", delta)
	}
}

func TestFullLoadServerAbout3Hours(t *testing.T) {
	// Paper Fig. 3b: +1 server at full load lands near 0.29 kW where the
	// total reduction is ~3.3-3.5 h.
	red := ReducedDrivingTimeHours(0.175 + ServerDynamicPowerW/1000)
	if red < 3.0 || red > 3.6 {
		t.Fatalf("full-load reduction = %v h, want ~3.3", red)
	}
}

func TestReducedMonotonicInPAD(t *testing.T) {
	prev := -1.0
	for pad := 0.15; pad <= 0.35; pad += 0.01 {
		r := ReducedDrivingTimeHours(pad)
		if r <= prev {
			t.Fatalf("not monotonic at pad=%v", pad)
		}
		prev = r
	}
}

func TestPowerBudgetTotalsMatchTableI(t *testing.T) {
	if w := PowerBudgetW(); math.Abs(w-175) > 1e-9 {
		t.Fatalf("PAD total = %v W, want 175", w)
	}
	if kw := PowerBudgetKW(); math.Abs(kw-0.175) > 1e-12 {
		t.Fatalf("PAD total kW = %v", kw)
	}
}

func TestPowerBudgetRender(t *testing.T) {
	out := RenderPowerBudget()
	for _, want := range []string{"Radar", "Sonar", "PAD", "175.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
