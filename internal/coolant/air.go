package coolant

import "oftec/internal/fan"

// FanSpec and HeatSinkSpec alias the fan package's parameter structs so
// configuration types outside the coolant seam can carry the air-cooling
// calibration without referencing internal/fan directly (the seam lint
// rule). The aliases marshal to the exact JSON the pre-seam configuration
// produced, so saved configs, serve-pool hashes, and ROM identities are
// unchanged.
type (
	FanSpec      = fan.Fan
	HeatSinkSpec = fan.HeatSinkModel
)

// PaperFan returns the paper's fan constants (Section 6.1): c = 1.6e-7 J·s²,
// ω_max = 524 rad/s.
func PaperFan() FanSpec { return fan.PaperFan() }

// PaperHeatSink returns the paper's heat-sink+fan conductance law
// (Section 6.1): p = 0.97, r = -0.25, q = 1 s, g_HS = 0.525 W/K.
func PaperHeatSink() HeatSinkSpec { return fan.PaperModel() }

// Air is the paper's forced-convection actuator: Equation (8) fan power and
// the Equation (9) conductance law, delegated verbatim to internal/fan so
// the seam is bit-for-bit equivalent to the pre-seam fan path. The command
// u is the fan speed ω in rad/s.
type Air struct {
	Fan  FanSpec
	Sink HeatSinkSpec
}

// PaperAir returns the air actuator with the paper's Section 6.1 constants.
func PaperAir() Air { return Air{Fan: PaperFan(), Sink: PaperHeatSink()} }

// Name implements Actuator.
func (a Air) Name() string { return "air" }

// Validate implements Actuator.
func (a Air) Validate() error {
	if err := a.Sink.Validate(); err != nil {
		return err
	}
	return a.Fan.Validate()
}

// UMax implements Actuator: the fan's ω_max (constraint (16)).
func (a Air) UMax() float64 { return a.Fan.OmegaMax }

// Power implements Actuator: P = c·ω³ (Equation (8)).
func (a Air) Power(u float64) float64 { return a.Fan.Power(u) }

// DPowerDU implements Actuator: 3·c·ω², zero for ω ≤ 0.
func (a Air) DPowerDU(u float64) float64 { return a.Fan.DPowerDOmega(u) }

// Conductance implements Actuator: p·ln(q·ω)+r clipped below at g_HS
// (Equation (9)).
func (a Air) Conductance(u float64) float64 { return a.Sink.Conductance(u) }

// DConductanceDU implements Actuator: p/ω above the g_HS crossover,
// exactly zero on the saturated branch.
func (a Air) DConductanceDU(u float64) float64 { return a.Sink.DConductanceDOmega(u) }

// CrossoverU returns the command at which the logarithmic law meets the
// still-air floor g_HS — the knee the saturation property tests probe.
func (a Air) CrossoverU() float64 { return a.Sink.CrossoverSpeed() }
