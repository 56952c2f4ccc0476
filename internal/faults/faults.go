// Package faults injects deterministic, seeded failures into grid
// measurement — the noise-realism counterpart of internal/sim's clean
// analytical model. A fault plan models the ways a real heterogeneous
// fleet misbehaves during a sweep: transient measurement errors, devices
// dropping out (permanently, or flapping for one attempt at a time),
// stragglers running ×k slower than the model predicts, and power-sensor
// dropouts on the NVML band.
//
// Everything is decided by pure functions of (seed, benchmark, size,
// device, attempt) — hashed into a private RNG per decision, exactly like
// sim.NewNoise — never of wall-clock time or execution order. Two runs of
// the same grid under the same plan produce identical fault sequences at
// any worker count, which is what lets CI assert on chaos outcomes.
//
// The clean simulator is the zero-value default: the harness only
// consults an Injector when one is configured, and a nil injector means
// every attempt succeeds on the model's terms.
package faults

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Sentinel errors the harness classifies retry behaviour by.
var (
	// ErrTransient marks one failed measurement attempt that a retry may
	// recover; the harness retries it under its RetryPolicy.
	ErrTransient = errors.New("faults: transient measurement fault")
	// ErrDeviceDown marks an attempt on a device that has dropped out of
	// the fleet. It is not retried: the harness quarantines the device
	// and records the cell as failed.
	ErrDeviceDown = errors.New("faults: device down")
)

// Decision is an injector's verdict for one measurement attempt of one
// cell. The zero value is "measure cleanly".
type Decision struct {
	// Transient fails the attempt with ErrTransient; the harness retries
	// it (up to RetryPolicy.MaxAttempts).
	Transient bool
	// Dropped fails the attempt with ErrDeviceDown; the harness
	// quarantines the device instead of retrying.
	Dropped bool
	// SlowFactor > 1 dilates the attempt's time samples by that factor
	// (a straggler); 0 or 1 leaves them untouched.
	SlowFactor float64
	// PowerDropout zeroes the attempt's energy samples when the cell is
	// metered over the NVML band — board-level power sensors are the
	// flaky ones (§5.2); RAPL cells are unaffected.
	PowerDropout bool
}

// Injector decides the fate of measurement attempts. Implementations must
// be pure functions of their arguments — never of time or execution
// order — so grids stay deterministic at every worker count, and must be
// safe for concurrent use from grid workers.
type Injector interface {
	Decide(bench, size, device string, attempt int) Decision
}

// Plan is the standard seeded injector: independent per-attempt fault
// draws at the configured rates, plus a list of devices that are dead
// from the start. The JSON tags make a Plan postable to dwarfserve as a
// job's chaos scenario. The zero value injects nothing.
type Plan struct {
	// Seed decorrelates chaos scenarios; the same seed over the same grid
	// reproduces the same fault sequence exactly.
	Seed int64 `json:"seed"`
	// TransientRate ∈ [0,1] is the per-attempt probability that a
	// measurement fails with ErrTransient.
	TransientRate float64 `json:"transient_rate,omitempty"`
	// Drop lists devices dead for the whole run: every attempt on them
	// returns Dropped, so the first cell to touch one quarantines it.
	Drop []string `json:"drop,omitempty"`
	// FlapRate ∈ [0,1] is the per-(device, attempt) probability that a
	// device flaps out for that attempt index. A flap is drawn once per
	// device — correlated across every cell on it, unlike TransientRate —
	// and surfaces as a retryable transient fault.
	FlapRate float64 `json:"flap_rate,omitempty"`
	// StragglerRate ∈ [0,1] is the per-attempt probability that a
	// successful measurement comes back StragglerFactor slower.
	StragglerRate float64 `json:"straggler_rate,omitempty"`
	// StragglerFactor is the slowdown applied to straggler attempts;
	// 0 means the default of 4.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	// PowerDropoutRate ∈ [0,1] is the per-attempt probability that an
	// NVML-metered cell loses its power sensor for the attempt.
	PowerDropoutRate float64 `json:"power_dropout_rate,omitempty"`
}

var _ Injector = (*Plan)(nil)

// defaultStragglerFactor is the slowdown when StragglerFactor is unset.
const defaultStragglerFactor = 4

// Validate rejects rates outside [0,1] and sub-unity straggler factors.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transient_rate", p.TransientRate},
		{"flap_rate", p.FlapRate},
		{"straggler_rate", p.StragglerRate},
		{"power_dropout_rate", p.PowerDropoutRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s %g outside [0,1]", r.name, r.v)
		}
	}
	if p.StragglerFactor != 0 && p.StragglerFactor < 1 {
		return fmt.Errorf("faults: straggler_factor %g below 1", p.StragglerFactor)
	}
	return nil
}

// rng derives a private deterministic RNG for one decision, seeded by
// FNV-hashing the plan seed and the NUL-separated parts — the same
// construction as sim.NewNoise, so fault streams and noise streams stay
// decorrelated but individually reproducible.
func (p *Plan) rng(parts ...string) *rand.Rand {
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(p.Seed))
	h.Write(seed[:])
	for _, s := range parts {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Decide implements Injector. Draw order is fixed (flap, transient,
// straggler, power) so a decision never depends on which rates are zero.
func (p *Plan) Decide(bench, size, device string, attempt int) Decision {
	var d Decision
	for _, id := range p.Drop {
		if id == device {
			d.Dropped = true
			return d
		}
	}
	at := strconv.Itoa(attempt)
	// Device-wide flap: hashed without the cell coordinate, so at a given
	// attempt index the device is out for all of its cells or none.
	if p.FlapRate > 0 && p.rng("flap", device, at).Float64() < p.FlapRate {
		d.Transient = true
	}
	r := p.rng("cell", bench, size, device, at)
	if r.Float64() < p.TransientRate {
		d.Transient = true
	}
	if r.Float64() < p.StragglerRate {
		if d.SlowFactor = p.StragglerFactor; d.SlowFactor == 0 {
			d.SlowFactor = defaultStragglerFactor
		}
	}
	if r.Float64() < p.PowerDropoutRate {
		d.PowerDropout = true
	}
	return d
}
