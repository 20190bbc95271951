// Package sensors models the vehicle's sensing hardware: stereo cameras,
// IMU, GPS, radar, and sonar. Each device has its own oscillator (with
// drift and offset), trigger schedule, and delivery pipeline latency — the
// properties that make real-world sensor synchronization hard (Sec. VI-A).
package sensors

import "time"

// Clock models a sensor-local oscillator: local = true*(1+drift) + offset.
// Independent per-sensor clocks are why "trigger each sensor on its own
// timer" cannot synchronize a rig.
type Clock struct {
	// DriftPPM is the frequency error in parts-per-million.
	DriftPPM float64
	// Offset is the phase error at true time zero.
	Offset time.Duration
}

// TrueFromLocal converts this sensor's local timestamp back to true
// (simulation) time.
func (c Clock) TrueFromLocal(local time.Duration) time.Duration {
	return time.Duration(float64(local-c.Offset) / (1 + c.DriftPPM*1e-6))
}

// PerfectClock is a zero-drift, zero-offset clock (the GPS-disciplined
// common timer of the hardware synchronizer).
var PerfectClock = Clock{}
