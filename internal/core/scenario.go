package core

import (
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/vehicle"
	"sov/internal/world"
)

// CruiseScenario builds a long empty corridor for latency characterization
// runs — the vehicle cruises at the target speed with occasional pedestrian
// crossings far ahead to modulate scene complexity without forcing stops.
func CruiseScenario(seed int64) *world.World {
	rng := sim.NewRNG(seed)
	w := world.NewCorridor(2000, rng)
	// Distant, lane-clearing crossings every ~15 s keep the scene dynamic.
	for x := 150.0; x < 1900; x += 90 {
		t := time.Duration(x/5.6*0.7) * time.Second
		w.AddCutInPedestrian(x, t, 2.0)
	}
	return w
}

// DynamicTrafficScenario builds the phase-shifting corridor behind the
// online-scheduler studies: calm cruising, then a dense pedestrian block
// (crossings every 8 m saturate the scene-complexity model, inflating
// detection and forcing feature-extraction keyframes nearly every frame),
// then calm again. The task mix — detection-heavy with stall-amplified
// tails during the heavy block, localization-light either side — is what
// a static mapping cannot track and the scheduler can.
func DynamicTrafficScenario(seed int64) *world.World {
	rng := sim.NewRNG(seed)
	w := world.NewCorridor(1600, rng)
	cross := func(x float64) {
		t := time.Duration(x/5.6*0.7) * time.Second
		w.AddCutInPedestrian(x, t, 2.0)
	}
	for x := 150.0; x < 500; x += 90 {
		cross(x) // calm approach
	}
	for x := 500.0; x < 1100; x += 8 {
		cross(x) // heavy block: complexity saturates
	}
	for x := 1100.0; x < 1500; x += 90 {
		cross(x) // calm again
	}
	return w
}

// CutInOutcome is the result of one obstacle trial.
type CutInOutcome struct {
	Stopped       bool
	Collided      bool
	MinClearanceM float64
	Reactive      bool // the reactive path fired
}

// RunSuddenObstacle executes the Eq. 1 worst case: an obstacle materializes
// directly in the lane when the vehicle is exactly triggerDistance meters
// away. Unlike a crossing pedestrian (which may clear the path on its own),
// the outcome here is decided purely by distance vs. reaction latency:
// inside the braking floor a collision is physically guaranteed.
func RunSuddenObstacle(cfg Config, triggerDistance float64, duration time.Duration) CutInOutcome {
	const obsX = 120.0
	// triggerDistance is measured to the obstacle's near surface.
	crossX := obsX - world.SuddenObstacleRadius - triggerDistance
	// Pass 1: probe when this exact configuration's vehicle crosses the
	// trigger position (heavier variants lag the nominal schedule).
	probe := New(cfg, world.NewCorridor(400, sim.NewRNG(7)))
	triggerTime := time.Duration(-1)
	probe.OnPhysicsStep = func(now time.Duration, st vehicle.State) bool {
		if st.Pos.X >= crossX {
			triggerTime = now
			return true
		}
		return false
	}
	probe.Run(duration)
	if triggerTime < 0 {
		triggerTime = time.Duration(crossX / cfg.TargetSpeed * float64(time.Second))
	}

	// Pass 2: identical run with the obstacle materializing at that time.
	w := world.NewCorridor(400, sim.NewRNG(7))
	w.AddSuddenObstacle(mathx.Vec2{X: obsX}, triggerTime)
	s := New(cfg, w)
	rep := s.Run(duration)
	return CutInOutcome{
		Stopped:       s.Vehicle().State().Speed < 0.05,
		Collided:      rep.Collisions > 0,
		MinClearanceM: rep.MinClearance,
		Reactive:      rep.ReactiveEngagements > 0,
	}
}
