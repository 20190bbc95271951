package models

// ThermalModel is the Sec. III-B thermal constraint: a lumped
// thermal-resistance model of the computing enclosure. The paper's point is
// that at PAD < 200 W, conventional fan cooling holds the system inside its
// commercial temperature range across the deployment climates
// (−20 °C … +40 °C); this model lets that claim be checked quantitatively
// and shows where it would break.
type ThermalModel struct {
	// ThermalResistanceCW is the enclosure's effective junction-to-ambient
	// thermal resistance in °C per watt with the stock fans.
	ThermalResistanceCW float64
	// MaxComponentTempC is the commercial-grade ceiling.
	MaxComponentTempC float64
	// FanPowerW is drawn whenever active cooling runs.
	FanPowerW float64
}

// DefaultThermalModel returns the deployed server-enclosure parameters:
// ~0.25 °C/W with fans, 85 °C ceiling.
func DefaultThermalModel() ThermalModel {
	return ThermalModel{ThermalResistanceCW: 0.25, MaxComponentTempC: 85, FanPowerW: 6}
}

// SteadyTempC returns the steady-state internal temperature for a heat load
// at an ambient temperature.
func (m ThermalModel) SteadyTempC(loadW, ambientC float64) float64 {
	return ambientC + m.ThermalResistanceCW*loadW
}

// WithinLimits reports whether the load is thermally safe at the ambient.
func (m ThermalModel) WithinLimits(loadW, ambientC float64) bool {
	return m.SteadyTempC(loadW, ambientC) <= m.MaxComponentTempC
}

// HeadroomW returns how much more power could be dissipated at the ambient
// before hitting the ceiling (negative when already over).
func (m ThermalModel) HeadroomW(loadW, ambientC float64) float64 {
	if m.ThermalResistanceCW <= 0 {
		return 0
	}
	return (m.MaxComponentTempC-ambientC)/m.ThermalResistanceCW - loadW
}

// MaxLoadW returns the largest thermally safe load at the ambient.
func (m ThermalModel) MaxLoadW(ambientC float64) float64 {
	if m.ThermalResistanceCW <= 0 {
		return 0
	}
	return (m.MaxComponentTempC - ambientC) / m.ThermalResistanceCW
}
