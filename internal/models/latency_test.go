package models

import (
	"math"
	"testing"
	"time"
)

func TestBrakingDistanceMatchesPaper(t *testing.T) {
	m := DefaultLatencyModel()
	// v=5.6 m/s, a=4 m/s² → 3.92 m, the paper's "4 m braking distance".
	if got := m.BrakingDistance(); math.Abs(got-3.92) > 1e-9 {
		t.Fatalf("braking distance = %v, want 3.92", got)
	}
	if st := m.StopTime(); math.Abs(st.Seconds()-1.4) > 1e-9 {
		t.Fatalf("stop time = %v, want 1.4 s", st)
	}
}

func TestMeanLatencyAvoidsFiveMeters(t *testing.T) {
	m := DefaultLatencyModel()
	// Paper: with 164 ms mean Tcomp, the vehicle avoids objects >= 5 m.
	d := m.AvoidableDistance(164 * time.Millisecond)
	if d > 5.0 || d < 4.8 {
		t.Fatalf("avoidable distance at 164 ms = %.3f m, want ~4.95 (<= 5)", d)
	}
}

func TestWorstCaseLatencyAvoidsEightPointThree(t *testing.T) {
	m := DefaultLatencyModel()
	// Paper: with 740 ms worst-case Tcomp, avoid objects >= 8.3 m.
	d := m.AvoidableDistance(740 * time.Millisecond)
	if math.Abs(d-8.176) > 0.2 {
		t.Fatalf("avoidable distance at 740 ms = %.3f m, want ~8.2-8.3", d)
	}
}

func TestReactivePathApproachesBrakingLimit(t *testing.T) {
	m := DefaultLatencyModel()
	// Paper: the 30 ms reactive path avoids objects ~4.1 m away,
	// approaching the 4 m theoretical limit.
	d := m.AvoidableDistance(30 * time.Millisecond)
	if d < 4.0 || d > 4.3 {
		t.Fatalf("reactive avoidable distance = %.3f m, want ~4.1-4.2", d)
	}
}

func TestComputingBudgetInverse(t *testing.T) {
	m := DefaultLatencyModel()
	for _, d := range []float64{4.5, 5, 7, 10} {
		budget := m.ComputingBudget(d)
		// At exactly the budget, stopping distance equals d.
		got := m.StoppingDistance(budget)
		if math.Abs(got-d) > 1e-6 {
			t.Fatalf("inverse mismatch at d=%v: stopping=%v", d, got)
		}
	}
}

func TestComputingBudgetNegativeInsideBrakingFloor(t *testing.T) {
	m := DefaultLatencyModel()
	if b := m.ComputingBudget(3.0); b >= 0 {
		t.Fatalf("budget inside braking floor = %v, want negative", b)
	}
}

func TestBudgetTightensWithDistance(t *testing.T) {
	m := DefaultLatencyModel()
	pts := m.RequirementCurve(4, 10, 20)
	for i := 1; i < len(pts); i++ {
		if pts[i].Budget <= pts[i-1].Budget {
			t.Fatalf("budget not monotonic at %d: %v -> %v", i, pts[i-1].Budget, pts[i].Budget)
		}
	}
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestComputeShareMatchesPaper(t *testing.T) {
	m := DefaultLatencyModel()
	// Paper: computing is 88% of end-to-end latency at the 164 ms mean
	// (rest is mechanical latency + CAN).
	share := m.ComputeShare(164 * time.Millisecond)
	if math.Abs(share-0.89) > 0.02 {
		t.Fatalf("compute share = %.3f, want ~0.88-0.89", share)
	}
	if m.ComputeShare(0) >= 0.01 {
		t.Fatal("zero tcomp should have ~0 share")
	}
}

func TestSpeedForBudgetRoundTrip(t *testing.T) {
	m := DefaultLatencyModel()
	// With the default speed's own stopping distance, the answer should
	// be the default speed.
	d := m.StoppingDistance(164 * time.Millisecond)
	v := m.SpeedForBudget(164*time.Millisecond, d)
	if math.Abs(v-m.Speed) > 1e-9 {
		t.Fatalf("speed = %v, want %v", v, m.Speed)
	}
	if m.SpeedForBudget(164*time.Millisecond, 0) != 0 {
		t.Fatal("zero distance should force zero speed")
	}
}

func TestLatencyModelValidate(t *testing.T) {
	if err := DefaultLatencyModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultLatencyModel()
	bad.Speed = 0
	if bad.Validate() == nil {
		t.Fatal("zero speed should be invalid")
	}
	bad = DefaultLatencyModel()
	bad.BrakeDecel = -1
	if bad.Validate() == nil {
		t.Fatal("negative decel should be invalid")
	}
	bad = DefaultLatencyModel()
	bad.MechLatency = -time.Second
	if bad.Validate() == nil {
		t.Fatal("negative latency should be invalid")
	}
}

func TestRequirementCurveMinPoints(t *testing.T) {
	m := DefaultLatencyModel()
	pts := m.RequirementCurve(4, 10, 1)
	if len(pts) != 2 {
		t.Fatalf("n<2 should clamp to 2, got %d", len(pts))
	}
}
