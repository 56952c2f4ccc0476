// Package harness drives suite measurements with the paper's methodology
// (§4.3): each benchmark runs in a loop until at least two (simulated)
// seconds have elapsed, the mean kernel time of the loop forms one sample,
// and 50 samples are collected per benchmark × size × device group, with
// energy and PAPI-style counters recorded alongside.
//
// Functional-versus-simulated policy: every configuration first runs one
// simulate-only iteration to characterise its kernels; if the total
// operation count fits the functional budget, a real (executing) iteration
// follows and the result is verified against the benchmark's serial
// reference. Oversized configurations (lud 4096, nqueens 18, …) keep the
// timing model only — their kernels are verified at the largest size that
// fits the budget. See DESIGN.md §2.
package harness

import (
	"context"
	"fmt"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/papi"
	"opendwarfs/internal/power"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/sim"
)

// Options configures a measurement run.
type Options struct {
	// Samples per group; the paper uses 50 (§4.3).
	Samples int
	// MinLoopNs is the minimum simulated duration of one measurement loop;
	// the paper uses two seconds.
	MinLoopNs float64
	// MaxLoopIters caps loop iterations for very short kernels.
	MaxLoopIters int
	// MaxFunctionalOps is the operation budget above which functional
	// execution is skipped in favour of simulate-only timing.
	MaxFunctionalOps float64
	// Verify requests serial-reference verification after functional runs.
	Verify bool
	// Seed drives dataset generation.
	Seed int64
}

// DefaultOptions returns the paper's methodology parameters.
func DefaultOptions() Options {
	return Options{
		Samples:          scibench.PaperSampleSize(),
		MinLoopNs:        2e9,
		MaxLoopIters:     1 << 20,
		MaxFunctionalOps: 3e8,
		Verify:           true,
		Seed:             1,
	}
}

// Measurement is the result of one benchmark × size × device group.
type Measurement struct {
	Benchmark string
	Dwarf     string
	Size      string
	Device    *sim.DeviceSpec

	// Functional reports whether kernels actually executed (vs timing
	// model only); Verified whether the serial reference check passed.
	Functional bool
	Verified   bool

	// Iterations is the per-sample loop length chosen to cover MinLoopNs.
	Iterations int
	// FootprintBytes is the verified device-side memory usage (Eq. 1).
	FootprintBytes int64
	// KernelLaunches is the number of kernel enqueues per iteration.
	KernelLaunches int

	// Per-sample observations (len == Options.Samples).
	KernelNs   []float64
	TransferNs []float64
	EnergyJ    []float64

	// Summaries of the above.
	Kernel   scibench.Summary
	Transfer scibench.Summary
	Energy   scibench.Summary

	// Counters aggregates the PAPI-style events of one iteration.
	Counters papi.Set
	// MeterScope names the energy measurement path (RAPL vs NVML).
	MeterScope power.Scope
	// Profiles holds one workload profile per distinct kernel of the
	// benchmark, in first-launch order — the input to AIWC analysis (§7).
	Profiles []*sim.KernelProfile
	// Diagnostics screens the kernel-time samples (normality,
	// autocorrelation, outliers) before the parametric statistics above
	// are trusted.
	Diagnostics scibench.Diagnostics
}

// traceCommand is one replayable entry of a preparation's command trace:
// the device-independent description of an enqueued command. Kernel entries
// carry the workload profile; transfer entries the byte volume. Replaying
// the trace through a device's analytical model reproduces exactly the
// event stream Iterate would have produced on that device.
type traceCommand struct {
	kind    opencl.CommandKind
	name    string
	bytes   int64
	profile *sim.KernelProfile
}

// Preparation holds everything about a benchmark × size × seed
// configuration that does not depend on the target device: the generated
// dataset's footprint, the characterisation command trace, the
// functional-budget decision, and the serial-reference verification
// verdict. One Preparation can be Measured on any number of devices; the
// grid runner caches them so the 15 devices of one row share a single
// prepare (see cache.go).
type Preparation struct {
	Benchmark string
	Dwarf     string
	Size      string

	// FootprintBytes is the verified device-side memory usage (Eq. 1).
	FootprintBytes int64
	// KernelLaunches is the number of kernel enqueues per iteration.
	KernelLaunches int
	// TotalOps is the characterised operation count of one iteration,
	// the input to the functional-budget decision.
	TotalOps float64
	// Functional reports whether kernels actually executed during
	// preparation (vs timing model only); Verified whether the serial
	// reference check passed.
	Functional bool
	Verified   bool

	// trace is the per-iteration command stream (kernels + transfers) in
	// enqueue order; profiles holds one entry per distinct kernel in
	// first-launch order.
	trace    []traceCommand
	profiles []*sim.KernelProfile
}

// Profiles returns one workload profile per distinct kernel of the
// preparation, in first-launch order. Profiles are computed by the
// benchmark from the NDRange and dataset alone — never from a device — so
// the same slice characterises the configuration on every catalogue entry;
// it is the input to AIWC feature extraction (internal/aiwc.Aggregate) and
// the prediction subsystem (internal/predict).
func (p *Preparation) Profiles() []*sim.KernelProfile { return p.profiles }

// prepDevice returns the device used to drive preparation passes. Workload
// profiles, datasets and verification verdicts are device-independent, so
// any catalogue entry works; the first is used for determinism.
func prepDevice() *opencl.Device { return opencl.AllDevices()[0] }

// Prepare runs the device-independent phase for one benchmark × size ×
// seed configuration: instance construction, dataset generation and setup,
// the simulate-only characterisation pass, the functional-budget decision
// and (within budget) one functionally-executed, verified iteration.
// Cancelling ctx aborts between phases with the context's error; an
// aborted preparation leaves no partial state behind.
func Prepare(ctx context.Context, bench dwarfs.Benchmark, size string, opt Options) (*Preparation, error) {
	if opt.Samples <= 0 || opt.MinLoopNs <= 0 {
		return nil, fmt.Errorf("harness: non-positive sampling options")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, err := bench.New(size, opt.Seed)
	if err != nil {
		return nil, err
	}
	dev := prepDevice()
	clctx, err := opencl.NewContext(dev)
	if err != nil {
		return nil, err
	}
	q, err := opencl.NewQueue(clctx, dev)
	if err != nil {
		return nil, err
	}

	p := &Preparation{
		Benchmark: bench.Name(),
		Dwarf:     bench.Dwarf(),
		Size:      size,
	}

	// Host setup + initial transfers.
	if err := inst.Setup(clctx, q); err != nil {
		return nil, fmt.Errorf("harness: %s/%s setup: %w", bench.Name(), size, err)
	}
	if err := dwarfs.CheckFootprint(inst, clctx); err != nil {
		return nil, err
	}
	p.FootprintBytes = inst.FootprintBytes()
	q.DrainEvents()

	// Characterisation pass: simulate-only, to cost the configuration.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q.SetSimulateOnly(true)
	if err := inst.Iterate(q); err != nil {
		return nil, fmt.Errorf("harness: %s/%s characterisation: %w", bench.Name(), size, err)
	}
	events := q.DrainEvents()
	for _, ev := range events {
		if ev.Kind == opencl.CommandKernel {
			p.TotalOps += ev.Profile.TotalOps()
			p.KernelLaunches++
		}
	}

	// Functional pass within budget; its events replace the estimate
	// (identical profiles, but the run is the one that gets verified).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.TotalOps <= opt.MaxFunctionalOps {
		q.SetSimulateOnly(false)
		q.ResetTimeline()
		if err := inst.Iterate(q); err != nil {
			return nil, fmt.Errorf("harness: %s/%s execution: %w", bench.Name(), size, err)
		}
		events = q.DrainEvents()
		p.Functional = true
		if opt.Verify {
			if err := inst.Verify(); err != nil {
				return nil, fmt.Errorf("harness: %s/%s verification: %w", bench.Name(), size, err)
			}
			p.Verified = true
		}
	}

	trace := make([]traceCommand, 0, len(events))
	for _, ev := range events {
		trace = append(trace, traceCommand{
			kind: ev.Kind, name: ev.Name, bytes: ev.Bytes, profile: ev.Profile,
		})
	}
	if !p.setTrace(trace) {
		return nil, fmt.Errorf("harness: %s/%s produced no kernel time", bench.Name(), size)
	}
	return p, nil
}

// setTrace installs a command trace and derives profiles from it, one per
// kernel name in first-launch order — the rule both Prepare and a stored
// preparation's decoder follow. It reports whether the trace holds a
// kernel command.
func (p *Preparation) setTrace(trace []traceCommand) bool {
	p.trace = trace
	seen := map[string]bool{}
	for _, c := range trace {
		if c.kind == opencl.CommandKernel && !seen[c.name] {
			seen[c.name] = true
			p.profiles = append(p.profiles, c.profile)
		}
	}
	return len(p.profiles) > 0
}

// Measure runs the device-dependent phase: it replays the preparation's
// command trace through the device's analytical model to obtain kernel,
// transfer and energy estimates plus derived counters, then draws the
// paper's ≥2 s measurement-loop samples from the device's noise model. The
// noise stream is seeded by (device, benchmark, size) alone, so a
// Measurement is a pure function of its cell — independent of the order in
// which grid cells run. Cancelling ctx aborts before the trace replay or
// the sampling loop with the context's error; Measure never returns a
// partial measurement.
func (p *Preparation) Measure(ctx context.Context, dev *opencl.Device, opt Options) (*Measurement, error) {
	if opt.Samples <= 0 || opt.MinLoopNs <= 0 {
		return nil, fmt.Errorf("harness: non-positive sampling options")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, fmt.Errorf("harness: %s/%s measured on a nil device", p.Benchmark, p.Size)
	}

	m := &Measurement{
		Benchmark:      p.Benchmark,
		Dwarf:          p.Dwarf,
		Size:           p.Size,
		Device:         dev.Spec,
		Functional:     p.Functional,
		Verified:       p.Verified,
		FootprintBytes: p.FootprintBytes,
		KernelLaunches: p.KernelLaunches,
		Profiles:       p.profiles,
	}

	// Per-iteration means, energy and counters from the replayed trace.
	meter := power.NewMeter(dev.Spec)
	m.MeterScope = meter.Scope
	model := dev.Model()
	kernelNs, transferNs, energyJ := 0.0, 0.0, 0.0
	var counts papi.Counts
	for _, c := range p.trace {
		switch c.kind {
		case opencl.CommandKernel:
			bd := model.KernelTime(c.profile)
			kernelNs += bd.TotalNs
			energyJ += meter.KernelEnergy(model, bd)
			counts.Add(papi.Derive(dev.Spec, c.profile, bd.Traffic, bd.TotalNs))
		case opencl.CommandWrite:
			transferNs += model.TransferTime(c.bytes)
		}
	}
	if kernelNs <= 0 {
		return nil, fmt.Errorf("harness: %s/%s produced no kernel time", p.Benchmark, p.Size)
	}
	m.Counters = counts.Set()

	// ≥2 s measurement loop (§4.3), in simulated time.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	iters := int(opt.MinLoopNs/kernelNs) + 1
	if iters > opt.MaxLoopIters {
		iters = opt.MaxLoopIters
	}
	m.Iterations = iters

	noise := sim.NewNoise(dev.Spec, p.Benchmark+"/"+p.Size)
	m.KernelNs = make([]float64, opt.Samples)
	m.TransferNs = make([]float64, opt.Samples)
	m.EnergyJ = make([]float64, opt.Samples)
	sigma := meter.Scope.SensorSigmaW()
	for s := 0; s < opt.Samples; s++ {
		m.KernelNs[s] = noise.Sample(kernelNs, iters)
		m.TransferNs[s] = noise.Sample(transferNs, iters)
		m.EnergyJ[s] = noise.SampleEnergy(energyJ, kernelNs*1e-9, sigma)
	}
	m.Kernel = scibench.Summarize(m.KernelNs)
	if transferNs > 0 {
		m.Transfer = scibench.Summarize(m.TransferNs)
	}
	m.Energy = scibench.Summarize(m.EnergyJ)
	// Sample health screen (Hoefler & Belli rules): the parametric CI in
	// Kernel is only defensible when the samples pass these.
	m.Diagnostics = scibench.Diagnose(m.KernelNs)
	return m, nil
}

// Run measures one benchmark × size × device group: a Prepare followed by
// one Measure, with no caching. Grid runs share preparations instead.
func Run(ctx context.Context, bench dwarfs.Benchmark, size string, dev *opencl.Device, opt Options) (*Measurement, error) {
	p, err := Prepare(ctx, bench, size, opt)
	if err != nil {
		return nil, err
	}
	return p.Measure(ctx, dev, opt)
}

// Records converts a measurement into LibSciBench-style sample records for
// CSV/JSONL logging.
func (m *Measurement) Records() []scibench.Record {
	recs := make([]scibench.Record, 0, 2*len(m.KernelNs))
	counters := map[string]float64{}
	for k, v := range m.Counters.Values {
		counters[string(k)] = v
	}
	for s := range m.KernelNs {
		recs = append(recs, scibench.Record{
			Benchmark: m.Benchmark, Size: m.Size, Device: m.Device.ID,
			Class: m.Device.Class.String(), Region: "kernel", Sample: s,
			TimeNs: m.KernelNs[s], EnergyJ: m.EnergyJ[s], Counters: counters,
		})
		recs = append(recs, scibench.Record{
			Benchmark: m.Benchmark, Size: m.Size, Device: m.Device.ID,
			Class: m.Device.Class.String(), Region: "transfer", Sample: s,
			TimeNs: m.TransferNs[s],
		})
	}
	return recs
}
