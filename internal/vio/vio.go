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
// The sensor noise and camera reach are the deployed suite's constants.
// Each landmark carries the anchor error of its source: one initialized
// against the pose estimate inherits anchorPosStd, while a surveyed map's
// landmarks are tighter.
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
	// anchorPosStd accounts for the anchor error a landmark inherits from
	// the pose estimate it was initialized against. Without it the filter
	// becomes overconfident, freezes its bias estimates, and fights GPS
	// corrections.
	anchorPosStd float64 = 0.5
)

// landmark is a map point: its estimated world position, fixed once
// initialized, and the std of that position's error.
type landmark struct {
	pos mathx.Vec2
	std float64
}

// LandmarkObs is one stereo landmark observation in the body frame.
type LandmarkObs struct {
	ID      int
	Range   float64
	Bearing float64
}

// row is one row of the filter's fixed-size matrices: none has more than
// stateDim columns, and each product names how many it uses.
type row = [stateDim]float64

// eye is the stateDim×stateDim identity.
var eye = func() (m [stateDim]row) {
	for i := range m {
		m[i][i] = 1
	}
	return m
}()

// VIO is the filter.
type VIO struct {
	x [stateDim]float64
	p [stateDim]row

	// landmarks maps landmark ID to its map point.
	landmarks map[int]landmark
	// pending accumulates the first sightings of a landmark; the anchor
	// is committed as their average (initAnchorSightings), which reduces
	// the anchor noise that drives odometry frame drift.
	pending map[int][]mathx.Vec2

	updates  int
	propagns int
	newLM    int

	// The storage every step writes in place, so none allocates: h and rm
	// are a measurement's Jacobian H and noise R; j is the propagation's
	// Jacobian F, then an update's I−KH, and jp is j·P, then K·R·Kᵀ.
	h, rm, hp, s, sInv [2]row
	pht, k, kr, j, jp  [stateDim]row
}

// New returns a filter initialized at the given pose with small initial
// uncertainty.
func New(initial world.Pose) *VIO {
	v := &VIO{landmarks: make(map[int]landmark), pending: make(map[int][]mathx.Vec2)}
	v.x[iPx] = initial.Pos.X
	v.x[iPy] = initial.Pos.Y
	v.x[iYaw] = initial.Heading
	for i := 0; i < stateDim; i++ {
		v.p[i][i] = 0.01
	}
	v.p[iVx][iVx] = 1.0
	v.p[iVy][iVy] = 1.0
	v.p[iBg][iBg] = 1e-4
	v.p[iBax][iBax] = 1e-2
	v.p[iBay][iBay] = 1e-2
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
	f := &v.j
	*f = eye
	f[iPx][iVx] = h
	f[iPy][iVy] = h
	// d v / d yaw: rotating the body accel.
	f[iVx][iYaw] = (-sn*ax - c*ay) * h
	f[iVy][iYaw] = (c*ax - sn*ay) * h
	// d v / d ba = -R h.
	f[iVx][iBax] = -c * h
	f[iVx][iBay] = sn * h
	f[iVy][iBax] = -sn * h
	f[iVy][iBay] = -c * h
	f[iYaw][iBg] = -h

	// P = F P Fᵀ + Q.
	mul(v.jp[:], f[:], v.p[:], stateDim, stateDim, false)
	mul(v.p[:], v.jp[:], f[:], stateDim, stateDim, true)
	qa := accelNoise * accelNoise * h
	qg := gyroNoise * gyroNoise * h
	qb := biasWalk * biasWalk * h
	v.p[iVx][iVx] += qa
	v.p[iVy][iVy] += qa
	v.p[iYaw][iYaw] += qg
	v.p[iBg][iBg] += qb
	v.p[iBax][iBax] += qb
	v.p[iBay][iBay] += qb
	v.symmetrize()
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
				v.landmarks[o.ID] = landmark{pos: avg.Scale(1 / float64(len(v.pending[o.ID]))), std: anchorPosStd}
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
func (v *VIO) updateOne(lm landmark, o LandmarkObs) {
	dx := lm.pos.X - v.x[iPx]
	dy := lm.pos.Y - v.x[iPy]
	r2 := dx*dx + dy*dy
	r := math.Sqrt(r2)
	if r < 0.5 {
		return // too close; Jacobian ill-conditioned
	}
	predRange := r
	predBearing := mathx.WrapAngle(math.Atan2(dy, dx) - v.x[iYaw])

	// H: 2 x stateDim.
	v.h = [2]row{}
	v.h[0][iPx] = -dx / r
	v.h[0][iPy] = -dy / r
	v.h[1][iPx] = dy / r2
	v.h[1][iPy] = -dx / r2
	v.h[1][iYaw] = -1

	lmVar := lm.std * lm.std
	v.rm = [2]row{}
	v.rm[0][0] = rangeStd*rangeStd + lmVar
	v.rm[1][1] = bearingStd*bearingStd + lmVar/r2

	v.kalmanUpdate([2]float64{
		o.Range - predRange,
		mathx.WrapAngle(o.Bearing - predBearing),
	}, false)
}

// UpdateGPS applies a global position fix (the GPS-VIO hybrid of Sec. VI-B:
// when GNSS is strong it corrects the accumulated VIO drift; the EKF update
// itself is trivially cheap compared to the vision front-end).
func (v *VIO) UpdateGPS(fix sensors.GPSFix) {
	v.h = [2]row{}
	v.h[0][iPx] = 1
	v.h[1][iPy] = 1
	v.rm = [2]row{}
	v.rm[0][0] = gpsPosStd * gpsPosStd
	v.rm[1][1] = gpsPosStd * gpsPosStd
	resid := [2]float64{fix.Pos.X - v.x[iPx], fix.Pos.Y - v.x[iPy]}
	// Schmidt-style considered update: the gain is restricted to the
	// position states. In pure-odometry mode the landmark anchors live in
	// a drifted frame; letting a global position fix rip through the
	// velocity/bias cross-covariances pumps energy into the filter (the
	// anchors pull back every frame). Restricting the gain matches the
	// paper's design — "GNSS updates are directly used as the vehicle's
	// current position".
	before := mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}
	v.kalmanUpdate(resid, true)
	// "The GNSS signals are used to correct the VIO errors": the
	// correction re-anchors the odometry frame, so translate the landmark
	// anchors along with the pose. Otherwise drifted anchors pull the
	// estimate straight back.
	shift := mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}.Sub(before)
	if shift.Norm() > 0 {
		for id, lm := range v.landmarks {
			lm.pos = lm.pos.Add(shift)
			v.landmarks[id] = lm
		}
	}
}

// kalmanUpdate applies the measurement v.h, v.rm with Joseph-form
// covariance update (valid for any, including masked, gain). posOnly
// limits the correction to the position states.
func (v *VIO) kalmanUpdate(resid [2]float64, posOnly bool) {
	// S = H P Hᵀ + R.
	mul(v.hp[:], v.h[:], v.p[:], stateDim, stateDim, false)
	mul(v.s[:], v.hp[:], v.h[:], stateDim, 2, true)
	for i := range v.s {
		for c := 0; c < 2; c++ {
			v.s[i][c] += v.rm[i][c]
		}
	}
	// S⁻¹ column by column.
	s := [4]float64{v.s[0][0], v.s[0][1], v.s[1][0], v.s[1][1]}
	var l [4]float64
	for c := 0; c < 2; c++ {
		var col [2]float64
		col[c] = 1
		if !mathx.SolveSPD(s[:], l[:], col[:]) {
			return // numerically degenerate; skip this measurement
		}
		v.sInv[0][c], v.sInv[1][c] = col[0], col[1]
	}
	// K = P Hᵀ S⁻¹.
	mul(v.pht[:], v.p[:], v.h[:], stateDim, 2, true)
	mul(v.k[:], v.pht[:], v.sInv[:], 2, 2, false)
	if posOnly {
		for i := range v.k {
			if i != iPx && i != iPy {
				v.k[i] = row{}
			}
		}
	}
	for i := range v.x {
		dx := 0.0
		for c, kv := range v.k[i][:2] {
			dx += kv * resid[c]
		}
		v.x[i] += dx
	}
	v.x[iYaw] = mathx.WrapAngle(v.x[iYaw])
	// Joseph form: P = (I-KH) P (I-KH)ᵀ + K R Kᵀ.
	mul(v.j[:], v.k[:], v.h[:], 2, stateDim, false)
	for i := range v.j {
		for c := range v.j[i] {
			v.j[i][c] = eye[i][c] - v.j[i][c]
		}
	}
	mul(v.jp[:], v.j[:], v.p[:], stateDim, stateDim, false)
	mul(v.p[:], v.jp[:], v.j[:], stateDim, stateDim, true)
	mul(v.kr[:], v.k[:], v.rm[:], 2, 2, false)
	mul(v.jp[:], v.kr[:], v.k[:], 2, stateDim, true)
	for i := range v.p {
		for c := range v.p[i] {
			v.p[i][c] += v.jp[i][c]
		}
	}
	v.symmetrize()
}

// mul sets out = a·b, or a·bᵀ when bt, where a has n columns and the
// product m. Each output row accumulates from zero over a's columns in
// order, and a zero a[i][k] adds nothing: the order of the allocating
// algebra the tests hold the filter to in bits (oracle_test.go).
func mul(out, a, b []row, n, m int, bt bool) {
	for i := range out {
		o := &out[i]
		*o = row{}
		for k, av := range a[i][:n] {
			if av == 0 {
				continue
			}
			for c := 0; c < m; c++ {
				var bv float64
				if bt {
					bv = b[c][k]
				} else {
					bv = b[k][c]
				}
				o[c] += av * bv
			}
		}
	}
}

// symmetrize replaces P with (P + Pᵀ)/2, keeping the covariance symmetric
// under floating-point drift.
func (v *VIO) symmetrize() {
	for i := range v.p {
		for c := i + 1; c < stateDim; c++ {
			m := (v.p[i][c] + v.p[c][i]) / 2
			v.p[i][c], v.p[c][i] = m, m
		}
	}
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
