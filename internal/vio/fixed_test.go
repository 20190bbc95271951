package vio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/world"
)

// sameAsOracle fails t at the first state, covariance, landmark or count of
// v that differs from the oracle's in bits, naming the call it follows.
func sameAsOracle(t *testing.T, v *VIO, o *oracleVIO, format string, args ...any) {
	t.Helper()
	fail := func(f string, a ...any) {
		t.Helper()
		t.Fatalf(fmt.Sprintf(format, args...)+": "+f, a...)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range v.x {
		if !same(v.x[i], o.x[i]) {
			fail("x[%d] = %v, oracle %v", i, v.x[i], o.x[i])
		}
	}
	for i := range v.p {
		for j := range v.p[i] {
			if !same(v.p[i][j], o.p.At(i, j)) {
				fail("P[%d][%d] = %v, oracle %v", i, j, v.p[i][j], o.p.At(i, j))
			}
		}
	}
	if v.propagns != o.propagns || v.updates != o.updates || v.newLM != o.newLM || len(v.pending) != len(o.pending) {
		fail("counts (%d, %d, %d, %d pending), oracle (%d, %d, %d, %d)",
			v.propagns, v.updates, v.newLM, len(v.pending), o.propagns, o.updates, o.newLM, len(o.pending))
	}
	if len(v.landmarks) != len(o.landmarks) {
		fail("%d landmarks, oracle %d", len(v.landmarks), len(o.landmarks))
	}
	for id, lm := range v.landmarks {
		olm, ok := o.landmarks[id]
		if !ok || !same(lm.pos.X, olm.pos.X) || !same(lm.pos.Y, olm.pos.Y) || !same(lm.std, olm.std) {
			fail("landmark %d = %+v, oracle %+v (%v)", id, lm, olm, ok)
		}
	}
}

// runBoth drives the filter and the oracle through RunTrajectory's loop on
// the same inputs, comparing them after every call, and returns the
// filter's estimates at camera rate.
func runBoth(t *testing.T, imuCfg sensors.IMUConfig, traj Trajectory, w *world.World,
	opt RunOptions, rng *sim.RNG) []mathx.Vec2 {
	t.Helper()
	imu := sensors.NewIMU(imuCfg, rng.Fork())
	obsRNG := rng.Fork()
	startPose, _ := traj(0)
	v, o := New(startPose), newOracle(startPose)
	p1, _ := traj(10 * time.Millisecond)
	vel := p1.Pos.Sub(startPose.Pos).Scale(100)
	v.SetVelocity(vel)
	o.SetVelocity(vel)
	sameAsOracle(t, v, o, "SetVelocity")

	var est []mathx.Vec2
	nextCam, nextGPS := camDT, gpsDT
	for tt := imuDT; tt <= opt.Duration; tt += imuDT {
		ax, ay, yawRate := bodyKinematics(traj, tt)
		sample := imu.SampleAt(tt, ax, ay, yawRate)
		v.PropagateIMU(sample, imuDT)
		o.PropagateIMU(sample, imuDT)
		sameAsOracle(t, v, o, "PropagateIMU at %v", tt)
		if tt >= nextCam {
			nextCam += camDT
			offset := opt.CameraTimestampOffset
			if offset > 0 {
				offset = time.Duration(obsRNG.Uniform(0, 2*float64(offset)))
			}
			captureT := tt - offset
			if captureT < 0 {
				captureT = 0
			}
			truth, _ := traj(captureT)
			obs := ObserveLandmarks(w, truth, obsRNG)
			v.UpdateCamera(obs)
			o.UpdateCamera(obs)
			sameAsOracle(t, v, o, "UpdateCamera at %v", tt)
			est = append(est, v.Pose().Pos)
		}
		if opt.GPS != nil && tt >= nextGPS {
			nextGPS += gpsDT
			truth, _ := traj(tt)
			fix := opt.GPS.Fix(truth.Pos)
			v.UpdateGPS(fix)
			o.UpdateGPS(fix)
			sameAsOracle(t, v, o, "UpdateGPS at %v", tt)
		}
	}
	return est
}

// TestFilterMatchesOracle runs Fig. 11b's loop and Sec. VI-B's corridor,
// without and with GPS and at camera–IMU offsets of 0, 20 and 40 ms, and
// holds the fixed-size filter to the allocating oracle in bits after every
// call. Each run's estimates also match RunTrajectory's, so the lockstep
// loop is the one the experiments run.
func TestFilterMatchesOracle(t *testing.T) {
	imuCfg := calibratedIMU()
	ring := world.NewRing(20, sim.NewRNG(8))
	corridor := world.NewCorridor(300, sim.NewRNG(5))
	straight := func(tt time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: 5.6 * tt.Seconds()}}, mathx.Vec3{}
	}
	cases := []struct {
		name   string
		traj   Trajectory
		w      *world.World
		offset time.Duration
	}{
		{"loop/0ms", CircleTrajectory(20, 5.6), ring, 0},
		{"loop/20ms", CircleTrajectory(20, 5.6), ring, 20 * time.Millisecond},
		{"loop/40ms", CircleTrajectory(20, 5.6), ring, 40 * time.Millisecond},
		{"corridor/0ms", straight, corridor, 0},
	}
	for _, c := range cases {
		for _, gps := range []bool{false, true} {
			name := c.name
			opt := RunOptions{Duration: 20 * time.Second, CameraTimestampOffset: c.offset}
			if gps {
				name += "/gps"
				opt.GPS = sensors.NewGPS(sim.NewRNG(6))
			}
			t.Run(name, func(t *testing.T) {
				est := runBoth(t, imuCfg, c.traj, c.w, opt, sim.NewRNG(9))
				if gps {
					opt.GPS = sensors.NewGPS(sim.NewRNG(6))
				}
				res := RunTrajectory(imuCfg, c.traj, c.w, opt, sim.NewRNG(9))
				if len(res.EstPath) != len(est) {
					t.Fatalf("RunTrajectory made %d estimates, the lockstep loop %d", len(res.EstPath), len(est))
				}
				for i, p := range res.EstPath {
					if p != est[i] {
						t.Fatalf("estimate %d: RunTrajectory %v, lockstep %v", i, p, est[i])
					}
				}
			})
		}
	}
}

// fuzzOps reads a fuzz input as a sequence of filter calls; past the end
// of the input every field reads zero.
type fuzzOps []byte

func (b *fuzzOps) u8() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// i16 reads a little-endian int16.
func (b *fuzzOps) i16() float64 {
	lo := uint16(b.u8())
	return float64(int16(lo | uint16(b.u8())<<8))
}

// FuzzFilterMatchesOracle holds the fixed-size filter to the allocating
// oracle in bits after every call of an arbitrary sequence: IMU samples
// over steps of up to ±3.3 s, the non-positive ones (h <= 0) included;
// landmark sets of up to 15 sightings of 8 landmarks at ranges down to 0
// (r < 0.5); and GPS fixes.
//
// The Joseph form keeps P positive definite, so no such sequence makes an
// innovation covariance that is not; a last op sets the position block of
// P, then fuses a fix, whose S is that block plus R, and ends the
// sequence. A sequence also ends once the oracle's state leaves
// |x| <= 1e3, |P| <= 1e6: NaN payloads are not the filter's contract, and
// mathx.WrapAngle, which steps a wild heading back 2π at a time, would
// take about forever.
//
// Each op is a kind byte, then for kind%4 == 0 an IMU sample (yaw rate,
// accelerations, step: four int16s), for 1 a landmark set (a count byte,
// then id, range and bearing bytes per sighting), for 2 a GPS fix (two
// int16s), and for 3 the position block (three int16s) and a fix.
func FuzzFilterMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		v, o := New(world.Pose{}), newOracle(world.Pose{})
		readFix := func() sensors.GPSFix { return sensors.GPSFix{Pos: mathx.Vec2{X: ops.i16() / 64, Y: ops.i16() / 64}} }
		for op := 0; len(ops) > 0; op++ {
			switch ops.u8() % 4 {
			case 0:
				s := sensors.IMUSample{YawRate: ops.i16() / 4096, AccelX: ops.i16() / 1024, AccelY: ops.i16() / 1024}
				dt := time.Duration(ops.i16()) * 100 * time.Microsecond
				v.PropagateIMU(s, dt)
				o.PropagateIMU(s, dt)
				sameAsOracle(t, v, o, "op %d, PropagateIMU", op)
			case 1:
				obs := make([]LandmarkObs, ops.u8()%16)
				for i := range obs {
					obs[i] = LandmarkObs{ID: int(ops.u8() % 8), Range: float64(ops.u8()) / 8, Bearing: float64(int8(ops.u8())) * math.Pi / 128}
				}
				v.UpdateCamera(obs)
				o.UpdateCamera(obs)
				sameAsOracle(t, v, o, "op %d, UpdateCamera", op)
			case 2:
				fix := readFix()
				v.UpdateGPS(fix)
				o.UpdateGPS(fix)
				sameAsOracle(t, v, o, "op %d, UpdateGPS", op)
			case 3:
				pxx, pxy, pyy := ops.i16()/64, ops.i16()/64, ops.i16()/64
				v.p[iPx][iPx], v.p[iPx][iPy], v.p[iPy][iPx], v.p[iPy][iPy] = pxx, pxy, pxy, pyy
				o.p.Set(iPx, iPx, pxx)
				o.p.Set(iPx, iPy, pxy)
				o.p.Set(iPy, iPx, pxy)
				o.p.Set(iPy, iPy, pyy)
				fix := readFix()
				v.UpdateGPS(fix)
				o.UpdateGPS(fix)
				sameAsOracle(t, v, o, "op %d, UpdateGPS against a set covariance", op)
				return
			}
			for i, p := range o.p.Data {
				if i < stateDim && !(math.Abs(o.x[i]) <= 1e3) || !(math.Abs(p) <= 1e6) {
					return
				}
			}
		}
	})
}

// TestFilterStepsAllocateNothing: a warm IMU step, a camera update over 12
// known landmarks and a GPS update write only the filter's own storage.
func TestFilterStepsAllocateNothing(t *testing.T) {
	w := world.NewRing(20, sim.NewRNG(8))
	pose, _ := CircleTrajectory(20, 5.6)(0)
	v := NewWithMap(pose, w)
	obs := ObserveLandmarks(w, pose, sim.NewRNG(3))
	if len(obs) < maxLandmark {
		t.Fatalf("%d landmarks in view, want %d", len(obs), maxLandmark)
	}
	obs = obs[:maxLandmark]
	s := sensors.IMUSample{AccelX: 0.5, AccelY: 0.1, YawRate: 0.2}
	fix := sensors.GPSFix{Pos: pose.Pos.Add(mathx.Vec2{X: 0.5, Y: -0.3})}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"PropagateIMU", func() { v.PropagateIMU(s, imuDT) }},
		{"UpdateCamera", func() { v.UpdateCamera(obs) }},
		{"UpdateGPS", func() { v.UpdateGPS(fix) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
	if _, updates, lms := v.Stats(); lms != 0 || updates == 0 {
		t.Fatalf("camera updates %d, landmarks created %d: want updates against the map only", updates, lms)
	}
}
