package models

// The thermal model is the Sec. III-B thermal constraint: a lumped
// thermal-resistance model of the computing enclosure. The paper's point is
// that at PAD < 200 W, conventional fan cooling holds the system inside its
// commercial temperature range across the deployment climates
// (−20 °C … +40 °C); this model lets that claim be checked quantitatively
// and shows where it would break. The parameters are the deployed server
// enclosure's: ~0.25 °C/W with fans, 85 °C ceiling.
const (
	// thermalResistanceCW is the enclosure's effective junction-to-ambient
	// thermal resistance in °C per watt with the stock fans.
	thermalResistanceCW float64 = 0.25
	// MaxComponentTempC is the commercial-grade ceiling.
	MaxComponentTempC float64 = 85
	// FanPowerW is drawn whenever active cooling runs.
	FanPowerW float64 = 6
)

// SteadyTempC returns the steady-state internal temperature for a heat load
// at an ambient temperature.
func SteadyTempC(loadW, ambientC float64) float64 {
	return ambientC + thermalResistanceCW*loadW
}

// WithinLimits reports whether the load is thermally safe at the ambient.
func WithinLimits(loadW, ambientC float64) bool {
	return SteadyTempC(loadW, ambientC) <= MaxComponentTempC
}

// HeadroomW returns how much more power could be dissipated at the ambient
// before hitting the ceiling (negative when already over).
func HeadroomW(loadW, ambientC float64) float64 {
	return (MaxComponentTempC-ambientC)/thermalResistanceCW - loadW
}

// MaxLoadW returns the largest thermally safe load at the ambient.
func MaxLoadW(ambientC float64) float64 {
	return (MaxComponentTempC - ambientC) / thermalResistanceCW
}
