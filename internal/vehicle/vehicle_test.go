package vehicle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sov/internal/canbus"
	"sov/internal/mathx"
)

func step(v *Vehicle, total, dt time.Duration) {
	for el := time.Duration(0); el < total; el += dt {
		v.Step(dt)
	}
}

func TestStraightLineMotion(t *testing.T) {
	v := New(DefaultParams(), State{Speed: 5})
	step(v, time.Second, time.Millisecond)
	s := v.State()
	if math.Abs(s.Pos.X-5) > 1e-6 || math.Abs(s.Pos.Y) > 1e-9 {
		t.Fatalf("pos = %v, want (5,0)", s.Pos)
	}
	if math.Abs(v.Odometer()-5) > 1e-6 {
		t.Fatalf("odometer = %v", v.Odometer())
	}
}

func TestMechanicalLatencyDelaysCommand(t *testing.T) {
	v := New(DefaultParams(), State{Speed: 5})
	v.Apply(canbus.Command{EStop: true})
	// 10 ms later (< 19 ms Tmech) the vehicle must not yet be braking.
	step(v, 10*time.Millisecond, time.Millisecond)
	if v.State().Speed < 5-1e-9 {
		t.Fatal("braking before mechanical latency elapsed")
	}
	// After Tmech it must be braking.
	step(v, 20*time.Millisecond, time.Millisecond)
	if v.State().Speed >= 5 {
		t.Fatal("not braking after mechanical latency")
	}
}

func TestBrakingDistanceMatchesModel(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	v := New(p, State{Speed: 5.6})
	v.Apply(canbus.Command{EStop: true})
	start := v.State().Pos
	step(v, 3*time.Second, time.Millisecond)
	if v.State().Speed != 0 {
		t.Fatalf("speed = %v, want 0", v.State().Speed)
	}
	dist := v.State().Pos.DistTo(start)
	want := 5.6 * 5.6 / (2 * 4.0) // 3.92 m
	if math.Abs(dist-want) > 0.01 {
		t.Fatalf("stopping distance = %v, want %v", dist, want)
	}
	if math.Abs(v.StopDistanceFrom(5.6)-want) > 1e-9 {
		t.Fatalf("StopDistanceFrom = %v", v.StopDistanceFrom(5.6))
	}
}

func TestSpeedClamps(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	v := New(p, State{Speed: 8})
	v.Apply(canbus.Command{AccelMps2: 100}) // demands above MaxAccel
	step(v, 10*time.Second, 10*time.Millisecond)
	if v.State().Speed > p.MaxSpeed+1e-9 {
		t.Fatalf("speed %v exceeds cap %v", v.State().Speed, p.MaxSpeed)
	}
	v2 := New(p, State{Speed: 2})
	v2.Apply(canbus.Command{AccelMps2: -100})
	step(v2, 2*time.Second, 10*time.Millisecond)
	if v2.State().Speed != 0 {
		t.Fatalf("speed = %v, want 0 (no reverse)", v2.State().Speed)
	}
}

func TestSteeringTurnsCircle(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	p.MaxSpeed = 100
	v := New(p, State{Speed: 5})
	v.Apply(canbus.Command{SteerRad: 0.2})
	// heading rate = v/L*tan(0.2); after t seconds heading ≈ rate*t.
	step(v, time.Second, time.Millisecond)
	wantRate := 5.0 / p.WheelBase * math.Tan(0.2)
	if math.Abs(v.State().Heading-wantRate) > 0.01 {
		t.Fatalf("heading = %v, want ~%v", v.State().Heading, wantRate)
	}
}

func TestZeroDtIsNoop(t *testing.T) {
	v := New(DefaultParams(), State{Speed: 5})
	before := v.State()
	v.Step(0)
	v.Step(-time.Second)
	if v.State() != before {
		t.Fatal("zero/negative dt changed state")
	}
}

func mustEncode(t *testing.T, id uint32, c canbus.Command) canbus.Frame {
	t.Helper()
	f, err := canbus.EncodeCommand(id, c)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestECUReactiveOverrideSuppressesProactive(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	v := New(p, State{Speed: 5})
	e := NewECU(v)

	if err := e.Receive(mustEncode(t, canbus.IDReactiveOverride, canbus.Command{})); err != nil {
		t.Fatal(err)
	}
	if !e.OverrideActive() {
		t.Fatal("override should be active")
	}
	// A proactive "accelerate" during the hold must be rejected.
	if err := e.Receive(mustEncode(t, canbus.IDControlCommand, canbus.Command{AccelMps2: 2})); err != nil {
		t.Fatal(err)
	}
	step(v, 100*time.Millisecond, time.Millisecond)
	if v.State().Speed >= 5 {
		t.Fatal("vehicle should be braking under override")
	}
	if _, rejected := e.Stats(); rejected != 1 {
		t.Fatalf("rejected=%d", rejected)
	}
}

func TestECUProactiveAfterHoldExpires(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	v := New(p, State{Speed: 5})
	e := NewECU(v)
	e.HoldTime = 50 * time.Millisecond

	_ = e.Receive(mustEncode(t, canbus.IDReactiveOverride, canbus.Command{}))
	step(v, 60*time.Millisecond, time.Millisecond)
	if e.OverrideActive() {
		t.Fatal("override should have expired")
	}
	if err := e.Receive(mustEncode(t, canbus.IDControlCommand, canbus.Command{AccelMps2: 1})); err != nil {
		t.Fatal(err)
	}
	if v.active.EStop {
		// command not yet active; step to activate
		step(v, 10*time.Millisecond, time.Millisecond)
	}
	step(v, 10*time.Millisecond, time.Millisecond)
	if v.active.AccelMps2 != 1 {
		t.Fatalf("active command = %+v, want accel 1", v.active)
	}
}

func TestECUDropsCorruptFrames(t *testing.T) {
	v := New(DefaultParams(), State{})
	e := NewECU(v)
	f := mustEncode(t, canbus.IDControlCommand, canbus.Command{AccelMps2: 1})
	f.Data[0] ^= 0xFF
	if err := e.Receive(f); err == nil {
		t.Fatal("expected checksum error")
	}
	frames, rejected := e.Stats()
	if frames != 1 || rejected != 1 {
		t.Fatalf("frames=%d rejected=%d", frames, rejected)
	}
}

func TestECUIgnoresStatusFrames(t *testing.T) {
	v := New(DefaultParams(), State{Speed: 3})
	e := NewECU(v)
	f := mustEncode(t, canbus.IDVehicleStatus, canbus.Command{AccelMps2: -4})
	if err := e.Receive(f); err != nil {
		t.Fatal(err)
	}
	step(v, 100*time.Millisecond, time.Millisecond)
	if v.State().Speed < 3-1e-9 {
		t.Fatal("status frame should not actuate")
	}
}

func TestHeadingWraps(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	v := New(p, State{Speed: 5})
	v.Apply(canbus.Command{SteerRad: p.MaxSteer})
	step(v, 30*time.Second, 10*time.Millisecond)
	h := v.State().Heading
	if h <= -math.Pi-1e-9 || h > math.Pi+1e-9 {
		t.Fatalf("heading not wrapped: %v", h)
	}
}

func TestPositionContinuity(t *testing.T) {
	p := DefaultParams()
	p.MechLatency = 0
	v := New(p, State{Speed: 5, Pos: mathx.Vec2{X: 1, Y: 2}})
	v.Apply(canbus.Command{SteerRad: 0.1})
	prev := v.State().Pos
	for i := 0; i < 1000; i++ {
		s := v.Step(time.Millisecond)
		if s.Pos.DistTo(prev) > 0.01 { // max 9 mm/ms at top speed
			t.Fatalf("teleport at step %d: %v -> %v", i, prev, s.Pos)
		}
		prev = s.Pos
	}
}

func TestShuttleParams(t *testing.T) {
	s := ShuttleParams()
	p := DefaultParams()
	if s.MaxSpeed != p.MaxSpeed {
		t.Fatal("both product lines are capped at 20 mph")
	}
	if s.MaxBrake >= p.MaxBrake {
		t.Fatal("shuttle must brake more gently")
	}
	if s.BasePowerKW <= p.BasePowerKW {
		t.Fatal("shuttle is the heavier, hungrier platform")
	}
	// The softer brake stretches the braking floor: Eq. 1 trade-off.
	shuttle := New(s, State{Speed: 5.6})
	pod := New(p, State{Speed: 5.6})
	if shuttle.StopDistanceFrom(5.6) <= pod.StopDistanceFrom(5.6) {
		t.Fatal("shuttle braking floor must exceed the pod's")
	}
}

func TestVehicleInvariantsUnderRandomCommands(t *testing.T) {
	// Property: whatever command stream arrives, speed stays within
	// [0, MaxSpeed] and the heading stays wrapped.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := New(DefaultParams(), State{Speed: rng.Float64() * 8})
		for i := 0; i < 300; i++ {
			if rng.Intn(4) == 0 {
				v.Apply(canbus.Command{
					SteerRad:  rng.Float64()*4 - 2,
					AccelMps2: rng.Float64()*40 - 20,
					EStop:     rng.Intn(10) == 0,
				})
			}
			s := v.Step(10 * time.Millisecond)
			if s.Speed < 0 || s.Speed > v.Params.MaxSpeed+1e-9 {
				return false
			}
			if s.Heading <= -math.Pi-1e-9 || s.Heading > math.Pi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryDrainMatchesEq2(t *testing.T) {
	// Eq. 2's scenario played forward: 6 kWh at Pv+PAD = 0.775 kW lasts
	// ~7.74 h.
	b := NewBattery(6)
	load := 0.6 + 0.175
	hours := 0.0
	for b.SoC > 0 && hours < 20 {
		b.Drain(load, time.Minute)
		hours += 1.0 / 60
	}
	if math.Abs(hours-7.74) > 0.05 {
		t.Fatalf("pack lasted %.2f h, want ~7.74", hours)
	}
}

func TestBatteryRemainingDrivingTime(t *testing.T) {
	b := NewBattery(6)
	// A full 6 kWh pack sustains the 0.6 kW vehicle load for 10 h (Eq. 2's
	// baseline); five of them leave half the pack.
	if h := b.RemainingKWh() / 0.6; math.Abs(h-10) > 1e-9 {
		t.Fatalf("remaining = %v h, want 10", h)
	}
	b.Drain(0.6, 5*time.Hour)
	if math.Abs(b.RemainingKWh()-3) > 1e-9 {
		t.Fatalf("remaining = %v kWh, want 3", b.RemainingKWh())
	}
	if b.SoC <= 0 {
		t.Fatal("half-full pack reported empty")
	}
	if b.String() == "" {
		t.Fatal("empty string")
	}
}

func TestBatteryClampsAtZero(t *testing.T) {
	b := NewBattery(1)
	if b.Drain(100, time.Hour) {
		t.Fatal("over-drain should report empty")
	}
	if b.SoC != 0 {
		t.Fatalf("SoC = %v", b.SoC)
	}
	if (&Battery{}).Drain(1, time.Hour) {
		t.Fatal("zero-capacity pack should be empty")
	}
}

func TestBatteryCharge(t *testing.T) {
	b := NewBattery(6)
	b.SoC = 0.5
	// 3 kW for one hour adds half the 6 kWh pack.
	if full := b.Charge(3, time.Hour); !full || math.Abs(b.SoC-1) > 1e-12 {
		t.Fatalf("after 1 h at 3 kW: SoC %.3f full=%v, want 1.0 true", b.SoC, full)
	}
	// Charging a full pack clamps at 1 and keeps reporting full.
	if full := b.Charge(3, time.Hour); !full || b.SoC > 1 {
		t.Fatalf("overcharge: SoC %.3f full=%v", b.SoC, full)
	}
	b.SoC = 0.2
	if full := b.Charge(3, 30*time.Minute); full || math.Abs(b.SoC-0.45) > 1e-12 {
		t.Fatalf("after 30 min at 3 kW: SoC %.3f full=%v, want 0.45 false", b.SoC, full)
	}
	var zero Battery
	if zero.Charge(3, time.Hour) {
		t.Fatal("zero-capacity pack cannot report full")
	}
}
