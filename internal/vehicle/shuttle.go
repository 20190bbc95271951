package vehicle

import "time"

// ShuttleParams returns the 8-seater shuttle configuration (the paper's
// second product line: public autonomous transportation services). Same
// 20 mph cap as the pod, but heavier — which softens braking and raises
// the base power draw, shifting the Eq. 1/Eq. 2 trade-offs.
func ShuttleParams() Params {
	return Params{
		WheelBase:   3.2,
		MaxSpeed:    8.9, // both designs are capped at 20 mph
		MaxBrake:    3.2, // heavier vehicle, gentler for standing passengers
		MaxAccel:    1.5,
		MaxSteer:    0.45,
		MechLatency: 24 * time.Millisecond, // larger actuators
		BasePowerKW: 1.1,
	}
}
