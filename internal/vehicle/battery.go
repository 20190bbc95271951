package vehicle

import "time"

// Battery tracks the pack's state of charge as the vehicle and the
// autonomous-driving system draw power — the on-line counterpart of the
// Eq. 2 driving-time model.
type Battery struct {
	// CapacityKWh is the pack size (6 kWh deployed).
	CapacityKWh float64
	// SoC is the state of charge in [0,1].
	SoC float64
}

// NewBattery returns a full pack of the given capacity.
func NewBattery(capacityKWh float64) *Battery {
	return &Battery{CapacityKWh: capacityKWh, SoC: 1}
}

// Drain removes energy for a load over an interval; SoC clamps at zero.
// It reports whether the pack still has charge.
func (b *Battery) Drain(loadKW float64, dt time.Duration) bool {
	if b.CapacityKWh <= 0 {
		return false
	}
	b.SoC -= loadKW * dt.Hours() / b.CapacityKWh
	if b.SoC < 0 {
		b.SoC = 0
	}
	return b.SoC > 0
}

// Charge adds energy from a charger of the given power over an interval;
// SoC clamps at one. It reports whether the pack reached full charge.
func (b *Battery) Charge(chargeKW float64, dt time.Duration) bool {
	if b.CapacityKWh <= 0 {
		return false
	}
	b.SoC += chargeKW * dt.Hours() / b.CapacityKWh
	if b.SoC > 1 {
		b.SoC = 1
	}
	return b.SoC >= 1
}
