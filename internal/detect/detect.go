// Package detect implements the object-detection stage of the perception
// pipeline. The compute substrate is a real CNN forward pass (internal/nn);
// detection *quality* is modeled with an oracle-plus-noise channel because
// the paper's models are trained on proprietary field data we do not have
// (see DESIGN.md, substitutions). The channel reproduces the two failure
// modes the paper designs the reactive path around: missed objects and
// false positives (Sec. III-C, Sec. IV).
package detect

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

// Object is one detected object in the vehicle frame.
type Object struct {
	ID      int // stable per ground-truth obstacle within a run
	Kind    world.ObstacleKind
	Range   float64 // meters
	Bearing float64 // radians from vehicle heading
	// Pos/Vel are the vehicle-frame Cartesian estimates.
	Pos mathx.Vec2
	Vel mathx.Vec2
	// Radius is the estimated footprint radius (from the detection box
	// extent); the planner needs it to know whether it can steer around.
	Radius float64
}

// Config is empty: the channel's parameters are the constants below.
//
// Deprecated: kept so the benchmark's call of New compiles (ROADMAP item 7).
type Config struct{}

// The deployed camera's reach, and the field-calibrated channel: high but
// imperfect recall, occasional false positives — enough to exercise the
// reactive path.
const (
	// MaxRange bounds what the camera detector sees, in meters.
	MaxRange float64 = 35
	// FOV is the camera's horizontal field of view.
	FOV float64 = math.Pi / 2
	// classAccuracy is the probability the class label is correct.
	classAccuracy float64 = 0.95
	// recall is the per-object detection probability at close range; it
	// falls off linearly with range to half of it at MaxRange.
	recall float64 = 0.97
	// rangeNoiseStd and bearingNoiseStd perturb estimates; coarse depth is
	// fine, as the paper tolerates ~0.2 m.
	rangeNoiseStd   float64 = 0.2
	bearingNoiseStd float64 = 0.01
	// falsePositiveRate is the expected hallucinations per frame.
	falsePositiveRate float64 = 0.01
)

// Detector runs the oracle-noise channel over ground-truth visibility.
type Detector struct {
	Frame *world.Frame // ground truth's source: its own unless the vehicle shares one
	rng   *sim.RNG
	// truth is the visibility scratch; a detector processes one camera
	// frame at a time, on the goroutine that runs the serial control loop.
	truth []world.Detection

	frames int
	missed int
	fps    int
}

// New returns a detector bound to a world. The Config is ignored.
func New(_ Config, w *world.World, rng *sim.RNG) *Detector {
	return &Detector{Frame: world.NewFrame(w), rng: rng}
}

// DetectInto appends the detections for a frame captured at time t from
// pose to dst (reusing its capacity) and returns it, so a recycled
// per-frame buffer makes the call allocation-free.
func (d *Detector) DetectInto(dst []Object, t time.Duration, pose world.Pose) []Object {
	d.frames++
	d.truth = d.Frame.VisibleObstaclesInto(d.truth[:0], pose, t, MaxRange, FOV)
	out := dst
	for _, det := range d.truth {
		p := recall * (1 - det.Range/MaxRange*0.5)
		if !d.rng.Bernoulli(p) {
			d.missed++
			continue
		}
		rng := det.Range + d.rng.Normal(0, rangeNoiseStd)
		brg := det.Bearing + d.rng.Normal(0, bearingNoiseStd)
		kind := det.Obstacle.Kind
		if !d.rng.Bernoulli(classAccuracy) {
			kind = world.ObstacleKind((int(kind) + 1) % 4)
		}
		obj := Object{
			ID:      det.Obstacle.ID,
			Kind:    kind,
			Range:   rng,
			Bearing: brg,
			Radius:  math.Max(0.1, det.Obstacle.Radius*(1+d.rng.Normal(0, 0.1))),
		}
		// The detector score is drawn but not kept (nothing downstream
		// reads it); the draw stays so the detector's stream is unchanged.
		d.rng.Normal(0.85, 0.08)
		obj.Pos = polarToVehicle(rng, brg)
		// Velocity is NOT produced by single-frame detection; tracking
		// (radar or KCF) supplies it. World velocity retained for eval.
		obj.Vel = det.Vel
		out = append(out, obj)
	}
	// False positives appear at random plausible locations.
	if d.rng.Bernoulli(falsePositiveRate) {
		d.fps++
		rng := d.rng.Uniform(3, MaxRange)
		brg := d.rng.Uniform(-FOV/2, FOV/2)
		d.rng.Normal(0.6, 0.1) // the unkept score, as above
		out = append(out, Object{
			ID:      -d.fps, // negative IDs mark hallucinations
			Kind:    world.KindStatic,
			Range:   rng,
			Bearing: brg,
			Pos:     polarToVehicle(rng, brg),
			Radius:  0.3,
		})
	}
	return out
}

// Stats reports frames processed, objects missed, and false positives.
func (d *Detector) Stats() (frames, missed, falsePositives int) {
	return d.frames, d.missed, d.fps
}

func polarToVehicle(r, bearing float64) mathx.Vec2 {
	return mathx.Vec2{X: r * math.Cos(bearing), Y: r * math.Sin(bearing)}
}

// ToWorld converts a vehicle-frame detection position to world frame.
func ToWorld(pose world.Pose, vehicleFrame mathx.Vec2) mathx.Vec2 {
	return pose.Pos.Add(vehicleFrame.Rotate(pose.Heading))
}
