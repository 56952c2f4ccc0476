package faults

import "opendwarfs/internal/obs"

// mInjectedTotal is the one fault-injection series; lblKind carries the
// Decision flag that fired (obsnames-checked).
const (
	mInjectedTotal = "faults_injected_total"
	lblKind        = "kind"
)

// Counted wraps an injector so every non-clean verdict bumps a
// faults_injected_total{kind=…} counter on reg — one per Decision flag:
// transient, device_down, straggler, power_dropout. Decisions pass
// through unchanged, so determinism is untouched: the counters are a pure
// function of the same (cell, attempt) stream the inner injector sees.
// With a nil inner injector or nil registry it returns inner unchanged.
func Counted(inner Injector, reg *obs.Registry) Injector {
	if inner == nil || reg == nil {
		return inner
	}
	return &counted{
		inner:     inner,
		transient: reg.Counter(obs.Name(mInjectedTotal, lblKind, "transient")),
		down:      reg.Counter(obs.Name(mInjectedTotal, lblKind, "device_down")),
		straggler: reg.Counter(obs.Name(mInjectedTotal, lblKind, "straggler")),
		power:     reg.Counter(obs.Name(mInjectedTotal, lblKind, "power_dropout")),
	}
}

type counted struct {
	inner                             Injector
	transient, down, straggler, power *obs.Counter
}

func (c *counted) Decide(bench, size, device string, attempt int) Decision {
	d := c.inner.Decide(bench, size, device, attempt)
	if d.Transient {
		c.transient.Inc()
	}
	if d.Dropped {
		c.down.Inc()
	}
	if d.SlowFactor > 1 {
		c.straggler.Inc()
	}
	if d.PowerDropout {
		c.power.Inc()
	}
	return d
}
