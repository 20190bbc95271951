package sensors

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

// GPSConfig describes the GNSS receiver.
type GPSConfig struct {
	RateHz   float64
	NoiseStd float64 // meters, horizontal, per axis
}

// DefaultGPSConfig returns a 10 Hz receiver with ~0.5 m noise (RTK-free).
func DefaultGPSConfig() GPSConfig { return GPSConfig{RateHz: 10, NoiseStd: 0.5} }

// GPSFix is one position fix. Valid is false during outages (tunnels,
// multipath) — the trigger for the corrected-VIO fallback of Sec. VI-B.
type GPSFix struct {
	Pos   mathx.Vec2
	Time  time.Duration
	Valid bool
}

// GPS samples ground-truth position with noise and honors world outages.
type GPS struct {
	Config GPSConfig
	World  *world.World
	rng    *sim.RNG
}

// NewGPS returns a GPS bound to a world.
func NewGPS(cfg GPSConfig, w *world.World, rng *sim.RNG) *GPS {
	return &GPS{Config: cfg, World: w, rng: rng}
}

// FixAt returns the fix for true position pos at time t.
func (g *GPS) FixAt(t time.Duration, pos mathx.Vec2) GPSFix {
	if g.World != nil && !g.World.GPSAvailable(t) {
		return GPSFix{Time: t, Valid: false}
	}
	return GPSFix{
		Pos:   pos.Add(mathx.Vec2{X: g.rng.Normal(0, g.Config.NoiseStd), Y: g.rng.Normal(0, g.Config.NoiseStd)}),
		Time:  t,
		Valid: true,
	}
}

// RadarConfig describes one automotive radar unit.
type RadarConfig struct {
	RateHz      float64
	MaxRange    float64 // meters
	FOV         float64 // radians
	RangeStd    float64 // meters
	VelocityStd float64 // m/s (radial)
	// DropoutProb is the per-scan probability of an unstable return (the
	// condition under which the SoV falls back to KCF visual tracking).
	DropoutProb float64
}

// DefaultRadarConfig returns the deployed forward radar.
func DefaultRadarConfig() RadarConfig {
	return RadarConfig{RateHz: 20, MaxRange: 40, FOV: math.Pi / 2,
		RangeStd: 0.15, VelocityStd: 0.1, DropoutProb: 0}
}

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

// ScanAt returns the echo list for a scan from the given pose at time t.
// A dropout (unstable signal) returns nil even if targets are present.
func (r *Radar) ScanAt(t time.Duration, pose world.Pose) []RadarReturn {
	return r.ScanAtInto(nil, t, pose)
}

// ScanAtInto appends the scan's echoes to dst (reusing its capacity) and
// returns it — the zero-allocation variant of ScanAt for a recycled buffer.
// RNG draw order is identical to ScanAt.
func (r *Radar) ScanAtInto(dst []RadarReturn, t time.Duration, pose world.Pose) []RadarReturn {
	if r.Config.DropoutProb > 0 && r.rng.Bernoulli(r.Config.DropoutProb) {
		return dst
	}
	r.dets = r.Frame.VisibleObstaclesInto(r.dets[:0], pose, t, r.Config.MaxRange, r.Config.FOV)
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
			Range:      math.Max(0, surface+r.rng.Normal(0, r.Config.RangeStd)),
			Bearing:    d.Bearing + r.rng.Normal(0, 0.01),
			RadialVel:  radial + r.rng.Normal(0, r.Config.VelocityStd),
			Time:       t,
		})
	}
	return out
}

// SonarConfig describes one ultrasonic ranger.
type SonarConfig struct {
	RateHz   float64
	MaxRange float64
	FOV      float64
	RangeStd float64
}

// DefaultSonarConfig returns the deployed short-range sonar.
func DefaultSonarConfig() SonarConfig {
	return SonarConfig{RateHz: 20, MaxRange: 5, FOV: math.Pi / 3, RangeStd: 0.05}
}

// SonarPing is one range-only measurement (no bearing, no velocity).
type SonarPing struct {
	Range float64
	Valid bool
	Time  time.Duration
}

// Sonar produces the nearest-obstacle range inside its cone.
type Sonar struct {
	Config SonarConfig
	Frame  *world.Frame // see Radar.Frame
	rng    *sim.RNG
}

// NewSonar returns a sonar bound to a world.
func NewSonar(cfg SonarConfig, w *world.World, rng *sim.RNG) *Sonar {
	return &Sonar{Config: cfg, Frame: world.NewFrame(w), rng: rng}
}

// PingAt returns the nearest surface range at time t, or Valid=false when
// clear.
func (s *Sonar) PingAt(t time.Duration, pose world.Pose) SonarPing {
	d, ok := s.Frame.NearestAhead(pose, t, s.Config.MaxRange, s.Config.FOV)
	if !ok {
		return SonarPing{Time: t}
	}
	surface := d.Range - d.Obstacle.Radius
	if surface < 0 {
		surface = 0
	}
	return SonarPing{Range: math.Max(0, surface+s.rng.Normal(0, s.Config.RangeStd)), Valid: true, Time: t}
}
