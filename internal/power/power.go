// Package power models the two energy measurement paths of the paper
// (§4.3/§5.2): Intel RAPL for CPU packages and Nvidia NVML for GPU boards,
// both exposed through PAPI components in the original study.
package power

import "opendwarfs/internal/sim"

// Scope identifies what a meter measures.
type Scope int

const (
	// ScopeRAPLPP0 is the RAPL PP0 domain: all cores in package 0 — the
	// counter the paper samples on the Skylake
	// (rapl:::PP0_ENERGY:PACKAGE0). It excludes uncore and DRAM power.
	ScopeRAPLPP0 Scope = iota
	// ScopeNVMLBoard is the NVML power reading: the whole card, memory and
	// chip, ±5 W (nvml:::<device>:power).
	ScopeNVMLBoard
)

// String names the scope like the PAPI component it stands in for.
func (s Scope) String() string {
	switch s {
	case ScopeRAPLPP0:
		return "rapl:::PP0_ENERGY:PACKAGE0"
	case ScopeNVMLBoard:
		return "nvml:::power"
	default:
		return "unknown"
	}
}

// SensorSigmaW returns the sensor noise the paper reports for the scope.
func (s Scope) SensorSigmaW() float64 {
	if s == ScopeNVMLBoard {
		return 5 // §5.2: "+/-5 watts ... for the entire card"
	}
	return 0.5
}

// Meter converts kernel-time breakdowns into energy estimates for a device.
type Meter struct {
	Spec  *sim.DeviceSpec
	Scope Scope
}

// NewMeter picks the measurement path the paper used for each device class:
// RAPL for CPUs and the MIC, NVML-style board power for GPUs.
func NewMeter(spec *sim.DeviceSpec) Meter {
	scope := ScopeNVMLBoard
	if spec.Class == sim.CPU || spec.Class == sim.MIC {
		scope = ScopeRAPLPP0
	}
	return Meter{Spec: spec, Scope: scope}
}

// Power returns the modelled draw in watts at a given utilisation in [0,1].
func (m Meter) Power(utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	idle := m.Spec.IdleWatts
	active := idle + (m.Spec.TDPWatts-idle)*utilization
	if m.Scope == ScopeRAPLPP0 {
		// PP0 covers the cores only: roughly 80% of active package power
		// and half of idle (uncore/DRAM excluded).
		return 0.5*idle + 0.8*(active-idle)
	}
	return active
}

// Energy returns the joules consumed over a kernel execution of the given
// modelled duration and utilisation.
func (m Meter) Energy(durationNs, utilization float64) float64 {
	if durationNs <= 0 {
		return 0
	}
	return m.Power(utilization) * durationNs * 1e-9
}

// KernelEnergy is the convenience used by the harness: energy of one
// modelled kernel breakdown.
func (m Meter) KernelEnergy(model *sim.Model, b sim.Breakdown) float64 {
	return m.Energy(b.TotalNs, model.Utilization(b))
}
