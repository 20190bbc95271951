package core

import (
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/vehicle"
	"sov/internal/world"
)

// progress is the arclength travelled along r for a position on (or near)
// lane i.
func progress(r world.Route, i int, p mathx.Vec2) float64 {
	s := 0.0
	for _, l := range r.Lanes[:i] {
		s += l.Length()
	}
	l := r.Lanes[i]
	return s + mathx.Clamp(p.Sub(l.Start).Dot(l.Direction()), 0, l.Length())
}

func TestRouteFollowingCampusLoop(t *testing.T) {
	// The rectangular campus loop: the vehicle must negotiate the 90°
	// corners by handing over to each leg's lane frame in turn.
	cfg := DefaultConfig()
	cfg.TargetSpeed = 3.0 // corner-appropriate speed
	w := world.CampusLoop(80, sim.NewRNG(4))
	s := New(cfg, w)
	var far float64
	s.OnPhysicsStep = func(_ time.Duration, st vehicle.State) bool {
		p := progress(s.route, s.route.ActiveLane(st.Pos), st.Pos)
		if p > far {
			far = p
		}
		return false
	}
	rep := s.Run(70 * time.Second)
	if rep.Collisions != 0 {
		t.Fatalf("loop collision, clearance %.2f", rep.MinClearance)
	}
	// 70 s at ~3 m/s is ~210 m: at least two legs (160 m) completed.
	if far < 150 {
		t.Fatalf("progress = %.0f m, expected to negotiate corners", far)
	}
	if rep.LateralRMSM > 1.2 {
		t.Fatalf("lane keeping on the loop too loose: %.2f m RMS", rep.LateralRMSM)
	}
}
