// Package vio implements the localization module of Table III: an
// EKF-based visual-inertial odometry in the plane (ground vehicles do not
// excite roll/pitch, so the deployed 3-D filter reduces to this planar
// form without losing the behaviours the paper studies — cumulative drift,
// sensitivity to camera–IMU synchronization, and GPS fusion).
//
// The filter state is [px, py, vx, vy, yaw, bGyro, bAccX, bAccY]:
// position, velocity, heading, gyro bias, and accelerometer bias. IMU
// samples propagate the state at 240 Hz; camera landmark observations
// (stereo range + bearing) correct it at 30 Hz. Landmarks are initialized
// from their first observation relative to the *current estimated* pose —
// the mechanism by which VIO accumulates error over distance (Sec. VI-B).
// The sensor noise and camera reach are the deployed suite's constants;
// Config keeps LandmarkPosStd, which a surveyed map lowers.
package vio

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/world"
)

// state vector indices.
const (
	iPx = iota
	iPy
	iVx
	iVy
	iYaw
	iBg
	iBax
	iBay
	stateDim
)

// The deployed sensor suite's noise and the camera front-end's reach.
const (
	gyroNoise   float64 = 0.003         // rad/s/√Hz equivalent per-sample std
	accelNoise  float64 = 0.03          // m/s²
	biasWalk    float64 = 1e-5          // bias random-walk per-sample std
	rangeStd    float64 = 0.15          // stereo landmark range noise, m
	bearingStd  float64 = 0.01          // landmark bearing noise, rad
	gpsPosStd   float64 = 0.5           // GPS position noise for fused updates, m
	maxLMRange  float64 = 18            // landmark visibility range
	cameraFOV   float64 = math.Pi * 0.8 // horizontal FOV
	maxLandmark         = 12            // max landmarks used per update
)

// Config holds the filter's map-quality parameter.
type Config struct {
	// LandmarkPosStd accounts for the anchor error a landmark inherits
	// from the pose estimate it was initialized against. Without it the
	// filter becomes overconfident, freezes its bias estimates, and
	// fights GPS corrections.
	LandmarkPosStd float64
}

// DefaultConfig matches the deployed sensor suite.
func DefaultConfig() Config { return Config{LandmarkPosStd: 0.5} }

// LandmarkObs is one stereo landmark observation in the body frame.
type LandmarkObs struct {
	ID      int
	Range   float64
	Bearing float64
}

// VIO is the filter.
type VIO struct {
	Config Config

	x [stateDim]float64
	p *mathx.Mat

	// landmarks maps landmark ID to its estimated world position, fixed
	// once initialized.
	landmarks map[int]mathx.Vec2
	// pending accumulates the first sightings of a landmark; the anchor
	// is committed as their average (initAnchorSightings), which reduces
	// the anchor noise that drives odometry frame drift.
	pending map[int][]mathx.Vec2

	updates  int
	propagns int
	newLM    int
}

// New returns a filter initialized at the given pose with small initial
// uncertainty.
func New(cfg Config, initial world.Pose) *VIO {
	v := &VIO{Config: cfg, p: mathx.NewMat(stateDim, stateDim),
		landmarks: make(map[int]mathx.Vec2), pending: make(map[int][]mathx.Vec2)}
	v.x[iPx] = initial.Pos.X
	v.x[iPy] = initial.Pos.Y
	v.x[iYaw] = initial.Heading
	for i := 0; i < stateDim; i++ {
		v.p.Set(i, i, 0.01)
	}
	v.p.Set(iVx, iVx, 1.0)
	v.p.Set(iVy, iVy, 1.0)
	v.p.Set(iBg, iBg, 1e-4)
	v.p.Set(iBax, iBax, 1e-2)
	v.p.Set(iBay, iBay, 1e-2)
	return v
}

// SetVelocity seeds the world-frame velocity estimate (e.g. from wheel
// odometry at startup). Starting the filter at rest while the vehicle moves
// forces a large transient that odometry mode cannot fully unwind.
func (v *VIO) SetVelocity(vel mathx.Vec2) {
	v.x[iVx] = vel.X
	v.x[iVy] = vel.Y
}

// Pose returns the current estimate.
func (v *VIO) Pose() world.Pose {
	return world.Pose{Pos: mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}, Heading: mathx.WrapAngle(v.x[iYaw])}
}

// Stats reports propagation steps, camera updates, and landmarks created.
func (v *VIO) Stats() (propagations, updates, landmarks int) {
	return v.propagns, v.updates, v.newLM
}

// PropagateIMU advances the filter with one IMU sample over dt.
func (v *VIO) PropagateIMU(s sensors.IMUSample, dt time.Duration) {
	h := dt.Seconds()
	if h <= 0 {
		return
	}
	v.propagns++

	omega := s.YawRate - v.x[iBg]
	ax := s.AccelX - v.x[iBax]
	ay := s.AccelY - v.x[iBay]
	yaw := v.x[iYaw]
	c, sn := math.Cos(yaw), math.Sin(yaw)
	// World-frame acceleration.
	awx := c*ax - sn*ay
	awy := sn*ax + c*ay

	// Nominal propagation.
	v.x[iPx] += v.x[iVx]*h + 0.5*awx*h*h
	v.x[iPy] += v.x[iVy]*h + 0.5*awy*h*h
	v.x[iVx] += awx * h
	v.x[iVy] += awy * h
	v.x[iYaw] = mathx.WrapAngle(yaw + omega*h)

	// Error-state Jacobian F (discrete, first order).
	f := mathx.Eye(stateDim)
	f.Set(iPx, iVx, h)
	f.Set(iPy, iVy, h)
	// d v / d yaw: rotating the body accel.
	f.Set(iVx, iYaw, (-sn*ax-c*ay)*h)
	f.Set(iVy, iYaw, (c*ax-sn*ay)*h)
	// d v / d ba = -R h.
	f.Set(iVx, iBax, -c*h)
	f.Set(iVx, iBay, sn*h)
	f.Set(iVy, iBax, -sn*h)
	f.Set(iVy, iBay, -c*h)
	f.Set(iYaw, iBg, -h)

	// P = F P Fᵀ + Q.
	v.p = mathx.MatMul(mathx.MatMul(f, v.p), f.T())
	qa := accelNoise * accelNoise * h
	qg := gyroNoise * gyroNoise * h
	qb := biasWalk * biasWalk * h
	v.p.Add(iVx, iVx, qa)
	v.p.Add(iVy, iVy, qa)
	v.p.Add(iYaw, iYaw, qg)
	v.p.Add(iBg, iBg, qb)
	v.p.Add(iBax, iBax, qb)
	v.p.Add(iBay, iBay, qb)
	v.p.Symmetrize()
}

// UpdateCamera applies a set of landmark observations. Unknown landmarks
// are initialized relative to the current estimate; known ones correct the
// state.
func (v *VIO) UpdateCamera(obs []LandmarkObs) {
	if len(obs) > maxLandmark {
		obs = obs[:maxLandmark]
	}
	const initAnchorSightings = 4
	for _, o := range obs {
		lm, known := v.landmarks[o.ID]
		if !known {
			// Anchor to the current (possibly drifted) estimate once
			// enough sightings have accumulated. This inheritance is
			// where VIO's cumulative error comes from (Sec. VI-B).
			pose := v.Pose()
			rel := mathx.Vec2{X: o.Range * math.Cos(o.Bearing), Y: o.Range * math.Sin(o.Bearing)}
			est := pose.Pos.Add(rel.Rotate(pose.Heading))
			v.pending[o.ID] = append(v.pending[o.ID], est)
			if len(v.pending[o.ID]) >= initAnchorSightings {
				var avg mathx.Vec2
				for _, p := range v.pending[o.ID] {
					avg = avg.Add(p)
				}
				v.landmarks[o.ID] = avg.Scale(1 / float64(len(v.pending[o.ID])))
				delete(v.pending, o.ID)
				v.newLM++
			}
			continue
		}
		v.updateOne(lm, o)
	}
	v.updates++
}

// updateOne performs a 2-D (range, bearing) EKF update against the stored
// landmark position.
func (v *VIO) updateOne(lm mathx.Vec2, o LandmarkObs) {
	dx := lm.X - v.x[iPx]
	dy := lm.Y - v.x[iPy]
	r2 := dx*dx + dy*dy
	r := math.Sqrt(r2)
	if r < 0.5 {
		return // too close; Jacobian ill-conditioned
	}
	predRange := r
	predBearing := mathx.WrapAngle(math.Atan2(dy, dx) - v.x[iYaw])

	// H: 2 x stateDim.
	h := mathx.NewMat(2, stateDim)
	h.Set(0, iPx, -dx/r)
	h.Set(0, iPy, -dy/r)
	h.Set(1, iPx, dy/r2)
	h.Set(1, iPy, -dx/r2)
	h.Set(1, iYaw, -1)

	lmVar := v.Config.LandmarkPosStd * v.Config.LandmarkPosStd
	rm := mathx.NewMat(2, 2)
	rm.Set(0, 0, rangeStd*rangeStd+lmVar)
	rm.Set(1, 1, bearingStd*bearingStd+lmVar/r2)

	resid := []float64{
		o.Range - predRange,
		mathx.WrapAngle(o.Bearing - predBearing),
	}
	v.kalmanUpdate(h, rm, resid, nil)
}

// UpdateGPS applies a global position fix (the GPS-VIO hybrid of Sec. VI-B:
// when GNSS is strong it corrects the accumulated VIO drift; the EKF update
// itself is trivially cheap compared to the vision front-end).
func (v *VIO) UpdateGPS(fix sensors.GPSFix) {
	h := mathx.NewMat(2, stateDim)
	h.Set(0, iPx, 1)
	h.Set(1, iPy, 1)
	rm := mathx.NewMat(2, 2)
	rm.Set(0, 0, gpsPosStd*gpsPosStd)
	rm.Set(1, 1, gpsPosStd*gpsPosStd)
	resid := []float64{fix.Pos.X - v.x[iPx], fix.Pos.Y - v.x[iPy]}
	// Schmidt-style considered update: the gain is restricted to the
	// position states. In pure-odometry mode the landmark anchors live in
	// a drifted frame; letting a global position fix rip through the
	// velocity/bias cross-covariances pumps energy into the filter (the
	// anchors pull back every frame). Restricting the gain matches the
	// paper's design — "GNSS updates are directly used as the vehicle's
	// current position".
	before := mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}
	v.kalmanUpdate(h, rm, resid, []int{iPx, iPy})
	// "The GNSS signals are used to correct the VIO errors": the
	// correction re-anchors the odometry frame, so translate the landmark
	// anchors along with the pose. Otherwise drifted anchors pull the
	// estimate straight back.
	shift := mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}.Sub(before)
	if shift.Norm() > 0 {
		for id, lm := range v.landmarks {
			v.landmarks[id] = lm.Add(shift)
		}
	}
}

// kalmanUpdate applies a measurement with Joseph-form covariance update
// (valid for any, including masked, gain). gainRows, when non-nil, limits
// the correction to those state indices.
func (v *VIO) kalmanUpdate(h, rm *mathx.Mat, resid []float64, gainRows []int) {
	ht := h.T()
	s := mathx.MatAdd(mathx.MatMul(mathx.MatMul(h, v.p), ht), rm)
	sInv, err := mathx.InvertSPD(s)
	if err != nil {
		return // numerically degenerate; skip this measurement
	}
	k := mathx.MatMul(mathx.MatMul(v.p, ht), sInv)
	if gainRows != nil {
		allowed := make(map[int]bool, len(gainRows))
		for _, r := range gainRows {
			allowed[r] = true
		}
		for i := 0; i < k.Rows; i++ {
			if !allowed[i] {
				for j := 0; j < k.Cols; j++ {
					k.Set(i, j, 0)
				}
			}
		}
	}
	dx := k.MulVec(resid)
	for i := 0; i < stateDim; i++ {
		v.x[i] += dx[i]
	}
	v.x[iYaw] = mathx.WrapAngle(v.x[iYaw])
	// Joseph form: P = (I-KH) P (I-KH)ᵀ + K R Kᵀ.
	ikh := mathx.MatSub(mathx.Eye(stateDim), mathx.MatMul(k, h))
	v.p = mathx.MatAdd(mathx.MatMul(mathx.MatMul(ikh, v.p), ikh.T()), mathx.MatMul(mathx.MatMul(k, rm), k.T()))
	v.p.Symmetrize()
}

// PositionError returns the Euclidean error against a true pose.
func (v *VIO) PositionError(truth world.Pose) float64 {
	return v.Pose().Pos.DistTo(truth.Pos)
}

// ObserveLandmarks generates stereo landmark observations of the world from
// the TRUE pose with measurement noise — the camera front-end's output.
func ObserveLandmarks(w *world.World, truth world.Pose, rng *sim.RNG) []LandmarkObs {
	idx := w.LandmarksInFOV(truth, maxLMRange, cameraFOV)
	out := make([]LandmarkObs, 0, len(idx))
	for _, i := range idx {
		lm := w.Landmarks[i].XY()
		rel := lm.Sub(truth.Pos)
		out = append(out, LandmarkObs{
			ID:      i,
			Range:   rel.Norm() + rng.Normal(0, rangeStd),
			Bearing: mathx.WrapAngle(rel.Angle()-truth.Heading) + rng.Normal(0, bearingStd),
		})
	}
	return out
}
