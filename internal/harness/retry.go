package harness

import (
	"time"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/power"
	"opendwarfs/internal/scibench"
)

// RetryPolicy governs per-cell measurement retries in a grid run. The
// zero value makes exactly one attempt per cell — the non-retrying
// harness, unchanged.
type RetryPolicy struct {
	// MaxAttempts is the total number of measurement attempts per cell,
	// first try included; 0 and 1 both mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the pause before the second attempt; each further
	// retry doubles it (exponential backoff). 0 retries immediately.
	BaseBackoff time.Duration
}

// attempts normalises MaxAttempts to at least one try.
func (r RetryPolicy) attempts() int {
	if r.MaxAttempts <= 1 {
		return 1
	}
	return r.MaxAttempts
}

// backoff returns the pause before the given attempt number (≥ 2):
// BaseBackoff, doubled for every attempt after the second. Doubling stops
// once the pause passes an hour, so no attempt count overflows it.
func (r RetryPolicy) backoff(attempt int) time.Duration {
	if r.BaseBackoff <= 0 || attempt <= 1 {
		return 0
	}
	d := r.BaseBackoff
	for i := 2; i < attempt && d < time.Hour; i++ {
		d *= 2
	}
	return d
}

// applyDecision distorts a successful measurement per the injector's
// verdict: a straggler's time samples are dilated by the slow factor,
// and a power dropout zeroes the energy samples of NVML-metered cells
// (board-level sensors are the flaky ones; RAPL cells are unaffected).
// Summaries and diagnostics are recomputed so the measurement — and the
// stored cell it becomes — stays self-consistent.
func applyDecision(m *Measurement, dec faults.Decision) {
	if dec.SlowFactor > 1 {
		for i := range m.KernelNs {
			m.KernelNs[i] *= dec.SlowFactor
		}
		for i := range m.TransferNs {
			m.TransferNs[i] *= dec.SlowFactor
		}
		m.Kernel = scibench.Summarize(m.KernelNs)
		for _, v := range m.TransferNs {
			if v > 0 {
				m.Transfer = scibench.Summarize(m.TransferNs)
				break
			}
		}
		m.Diagnostics = scibench.Diagnose(m.KernelNs)
	}
	if dec.PowerDropout && m.MeterScope == power.ScopeNVMLBoard {
		for i := range m.EnergyJ {
			m.EnergyJ[i] = 0
		}
		m.Energy = scibench.Summarize(m.EnergyJ)
	}
}
