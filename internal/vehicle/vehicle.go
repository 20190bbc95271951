// Package vehicle models the mechanical side of the SoV: a kinematic
// bicycle model for the vehicle body, the engine control unit (ECU) that
// accepts CAN commands — including the reactive-path safety override — and
// the actuator with its ~19 ms mechanical latency (Tmech in Fig. 2).
package vehicle

import (
	"math"
	"time"

	"sov/internal/canbus"
	"sov/internal/mathx"
)

// Params are the physical parameters of the micromobility vehicle.
type Params struct {
	WheelBase   float64       // meters
	MaxSpeed    float64       // m/s (paper: vehicles capped at 20 mph ≈ 8.9 m/s)
	MaxBrake    float64       // m/s², positive (paper: ~4)
	MaxAccel    float64       // m/s²
	MaxSteer    float64       // rad
	MechLatency time.Duration // delay before a command takes mechanical effect
	BasePowerKW float64       // Pv: average vehicle power without AD
}

// DefaultParams returns the 2-seater pod configuration.
func DefaultParams() Params {
	return Params{
		WheelBase:   1.8,
		MaxSpeed:    8.9, // 20 mph
		MaxBrake:    4.0,
		MaxAccel:    2.0,
		MaxSteer:    0.55,
		MechLatency: 19 * time.Millisecond,
		BasePowerKW: 0.6,
	}
}

// State is the vehicle's kinematic state on the ground plane.
type State struct {
	Pos     mathx.Vec2 // meters, world frame
	Heading float64    // radians
	Speed   float64    // m/s, non-negative
}

// Vehicle integrates the kinematic bicycle model and applies commands after
// the mechanical latency.
type Vehicle struct {
	Params Params
	state  State

	// pendingCmds are commands received but not yet mechanically active.
	pendingCmds []timedCommand
	active      canbus.Command
	now         time.Duration

	odometer float64
}

type timedCommand struct {
	at  time.Duration
	cmd canbus.Command
}

// New returns a vehicle at the given initial state.
func New(p Params, initial State) *Vehicle {
	return &Vehicle{Params: p, state: initial}
}

// State returns the current kinematic state.
func (v *Vehicle) State() State { return v.state }

// Odometer returns distance traveled in meters.
func (v *Vehicle) Odometer() float64 { return v.odometer }

// Now returns the vehicle's internal clock.
func (v *Vehicle) Now() time.Duration { return v.now }

// Apply registers a command at the current time; it becomes mechanically
// effective MechLatency later (Tmech).
func (v *Vehicle) Apply(cmd canbus.Command) {
	v.pendingCmds = append(v.pendingCmds, timedCommand{at: v.now + v.Params.MechLatency, cmd: cmd})
}

// Step advances the simulation by dt, activating any matured commands and
// integrating the bicycle model. It returns the new state.
func (v *Vehicle) Step(dt time.Duration) State {
	if dt <= 0 {
		return v.state
	}
	v.now += dt
	// Activate matured commands in order.
	n := 0
	for _, tc := range v.pendingCmds {
		if tc.at <= v.now {
			v.active = tc.cmd
		} else {
			v.pendingCmds[n] = tc
			n++
		}
	}
	v.pendingCmds = v.pendingCmds[:n]

	p := v.Params
	accel := v.active.AccelMps2
	if v.active.EStop {
		accel = -p.MaxBrake
	}
	accel = mathx.Clamp(accel, -p.MaxBrake, p.MaxAccel)
	steer := mathx.Clamp(v.active.SteerRad, -p.MaxSteer, p.MaxSteer)

	s := v.state
	h := dt.Seconds()
	newSpeed := mathx.Clamp(s.Speed+accel*h, 0, p.MaxSpeed)
	avgSpeed := (s.Speed + newSpeed) / 2
	dist := avgSpeed * h

	// Kinematic bicycle: heading rate = v/L * tan(steer).
	if p.WheelBase > 0 {
		s.Heading = mathx.WrapAngle(s.Heading + avgSpeed/p.WheelBase*math.Tan(steer)*h)
	}
	s.Pos = s.Pos.Add(mathx.Vec2{X: math.Cos(s.Heading), Y: math.Sin(s.Heading)}.Scale(dist))
	s.Speed = newSpeed

	v.odometer += dist
	v.state = s
	return s
}

// StopDistanceFrom returns the distance needed to brake to zero from speed
// with MaxBrake (v²/2a) — the mechanical braking floor.
func (v *Vehicle) StopDistanceFrom(speed float64) float64 {
	if v.Params.MaxBrake <= 0 {
		return math.Inf(1)
	}
	return speed * speed / (2 * v.Params.MaxBrake)
}

// ECU is the engine control unit: it decodes CAN frames into commands and
// enforces the reactive-path override semantics — a reactive frame
// (IDReactiveOverride) suppresses proactive commands for HoldTime.
type ECU struct {
	Vehicle  *Vehicle
	HoldTime time.Duration

	overrideUntil time.Duration
	frames        int
	rejected      int
}

// NewECU wires an ECU to a vehicle with a default 500 ms override hold.
func NewECU(v *Vehicle) *ECU {
	return &ECU{Vehicle: v, HoldTime: 500 * time.Millisecond}
}

// Receive processes one delivered CAN frame at the vehicle's current time.
// Malformed frames are counted and dropped (the real ECU's behaviour).
func (e *ECU) Receive(f canbus.Frame) error {
	e.frames++
	cmd, err := canbus.DecodeCommand(f)
	if err != nil {
		e.rejected++
		return err
	}
	now := e.Vehicle.Now()
	switch f.ID {
	case canbus.IDReactiveOverride:
		e.overrideUntil = now + e.HoldTime
		cmd.EStop = true
		e.Vehicle.Apply(cmd)
	case canbus.IDControlCommand:
		if now < e.overrideUntil {
			// Proactive command suppressed by an active reactive hold.
			e.rejected++
			return nil
		}
		e.Vehicle.Apply(cmd)
	default:
		// Status/diagnostic traffic; not a command.
	}
	return nil
}

// Stats reports frames seen and commands rejected.
func (e *ECU) Stats() (frames, rejected int) {
	return e.frames, e.rejected
}

// OverrideActive reports whether a reactive hold is in effect.
func (e *ECU) OverrideActive() bool {
	return e.Vehicle.Now() < e.overrideUntil
}
