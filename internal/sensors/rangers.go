package sensors

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

// gpsNoiseStd is the deployed 10 Hz receiver's horizontal noise per axis,
// in meters (RTK-free).
const gpsNoiseStd float64 = 0.5

// GPSFix is one position fix. Valid is false during outages (tunnels,
// multipath) — the trigger for the corrected-VIO fallback of Sec. VI-B.
type GPSFix struct {
	Pos   mathx.Vec2
	Valid bool
}

// GPS samples ground-truth position with noise and honors world outages.
type GPS struct {
	World *world.World
	rng   *sim.RNG
}

// NewGPS returns a GPS bound to a world.
func NewGPS(w *world.World, rng *sim.RNG) *GPS {
	return &GPS{World: w, rng: rng}
}

// FixAt returns the fix for true position pos at time t.
func (g *GPS) FixAt(t time.Duration, pos mathx.Vec2) GPSFix {
	if g.World != nil && !g.World.GPSAvailable(t) {
		return GPSFix{Valid: false}
	}
	return GPSFix{
		Pos:   pos.Add(mathx.Vec2{X: g.rng.Normal(0, gpsNoiseStd), Y: g.rng.Normal(0, gpsNoiseStd)}),
		Valid: true,
	}
}

// The deployed forward radar unit.
const (
	RadarMaxRange    float64 = 40          // meters
	RadarFOV         float64 = math.Pi / 2 // radians
	radarRangeStd    float64 = 0.15        // meters
	radarVelocityStd float64 = 0.1         // m/s (radial)
)

// RadarConfig describes one automotive radar unit.
type RadarConfig struct {
	// DropoutProb is the per-scan probability of an unstable return (the
	// condition under which the SoV falls back to KCF visual tracking).
	DropoutProb float64
}

// DefaultRadarConfig returns the deployed forward radar.
func DefaultRadarConfig() RadarConfig { return RadarConfig{DropoutProb: 0} }

// RadarReturn is one target echo: range, bearing, and — the radar's unique
// direct measurement — radial velocity.
type RadarReturn struct {
	ObstacleID int // ground-truth association (used only for evaluation)
	Range      float64
	Bearing    float64
	RadialVel  float64 // negative = closing
	Time       time.Duration
}

// Radar produces returns for obstacles in its cone.
type Radar struct {
	Config RadarConfig
	Frame  *world.Frame // the unit's own unless a rig or the vehicle shares one
	rng    *sim.RNG
	// dets is the unit's visibility scratch; a radar scans from one
	// goroutine at a time (in the SoV, the simulation-engine thread).
	dets []world.Detection
}

// NewRadar returns a radar bound to a world.
func NewRadar(cfg RadarConfig, w *world.World, rng *sim.RNG) *Radar {
	return &Radar{Config: cfg, Frame: world.NewFrame(w), rng: rng}
}

// ScanAtInto appends the echoes of a scan from the given pose at time t to
// dst (reusing its capacity) and returns it. A dropout (unstable signal)
// appends nothing even if targets are present.
func (r *Radar) ScanAtInto(dst []RadarReturn, t time.Duration, pose world.Pose) []RadarReturn {
	if r.Config.DropoutProb > 0 && r.rng.Bernoulli(r.Config.DropoutProb) {
		return dst
	}
	r.dets = r.Frame.VisibleObstaclesInto(r.dets[:0], pose, t, RadarMaxRange, RadarFOV)
	out := dst
	for _, d := range r.dets {
		losDir := d.Pos.Sub(pose.Pos)
		rn := losDir.Norm()
		if rn == 0 {
			continue
		}
		losUnit := losDir.Scale(1 / rn)
		radial := d.Vel.Dot(losUnit) // observer assumed the moving frame origin; ego-motion removed upstream
		// The echo comes off the near surface, not the centroid.
		surface := d.Range - d.Obstacle.Radius
		if surface < 0 {
			surface = 0
		}
		out = append(out, RadarReturn{
			ObstacleID: d.Obstacle.ID,
			Range:      math.Max(0, surface+r.rng.Normal(0, radarRangeStd)),
			Bearing:    d.Bearing + r.rng.Normal(0, 0.01),
			RadialVel:  radial + r.rng.Normal(0, radarVelocityStd),
			Time:       t,
		})
	}
	return out
}

// The deployed short-range ultrasonic ranger.
const (
	SonarMaxRange float64 = 5           // meters
	SonarFOV      float64 = math.Pi / 3 // radians
	sonarRangeStd float64 = 0.05        // meters
)

// SonarPing is one range-only measurement (no bearing, no velocity).
type SonarPing struct {
	Range float64
	Valid bool
}

// Sonar produces the nearest-obstacle range inside its cone.
type Sonar struct {
	Frame *world.Frame // see Radar.Frame
	rng   *sim.RNG
}

// NewSonar returns a sonar bound to a world.
func NewSonar(w *world.World, rng *sim.RNG) *Sonar {
	return &Sonar{Frame: world.NewFrame(w), rng: rng}
}

// PingAt returns the nearest surface range at time t, or Valid=false when
// clear.
func (s *Sonar) PingAt(t time.Duration, pose world.Pose) SonarPing {
	d, ok := s.Frame.NearestAhead(pose, t, SonarMaxRange, SonarFOV)
	if !ok {
		return SonarPing{}
	}
	surface := d.Range - d.Obstacle.Radius
	if surface < 0 {
		surface = 0
	}
	return SonarPing{Range: math.Max(0, surface+s.rng.Normal(0, sonarRangeStd)), Valid: true}
}
