// Package sim provides the device catalogue and analytical performance model
// standing in for the paper's 15 physical accelerators (Table 1).
//
// The model is deliberately first-order: execution time for one kernel launch
// is launch overhead plus the maximum of a compute term (roofline against the
// device's effective FLOP/IOP rate, corrected for SIMD efficiency, branch
// divergence, occupancy and Amdahl serial fractions) and a memory term
// (traffic resolved through the device's cache hierarchy by internal/cache).
// The paper's conclusions are relative — which accelerator class wins for
// which dwarf and problem size — and those orderings emerge from exactly
// these first-order parameters.
package sim

import (
	"fmt"

	"opendwarfs/internal/cache"
)

// Class is the accelerator class used to colour the paper's figures.
type Class int

const (
	CPU Class = iota
	ConsumerGPU
	HPCGPU
	MIC
)

// String returns the figure-legend name of the class.
func (c Class) String() string {
	switch c {
	case CPU:
		return "CPU"
	case ConsumerGPU:
		return "Consumer GPU"
	case HPCGPU:
		return "HPC GPU"
	case MIC:
		return "MIC"
	default:
		return "unknown"
	}
}

// IsGPU reports whether the class is a GPU of either kind.
func (c Class) IsGPU() bool { return c == ConsumerGPU || c == HPCGPU }

// DeviceSpec describes one platform from Table 1 of the paper, augmented
// with the public memory-system figures the timing model needs.
type DeviceSpec struct {
	// ID is the short stable identifier used on the command line
	// (e.g. "i7-6700k").
	ID string
	// Name is the marketing name as printed in Table 1.
	Name   string
	Vendor string
	Class  Class
	Series string

	// CoreCount is the count as printed in Table 1 (hyper-threaded cores,
	// CUDA cores, stream processors, or hardware threads for the MIC).
	CoreCount int
	// CoreKind is the table footnote label for CoreCount.
	CoreKind string
	// CUs is the number of independent compute units: physical cores for
	// CPUs, SMs/SMXs for Nvidia, CUs for AMD, tiles*2 for KNL. Scalar
	// (non-vectorizable) kernels parallelise across CUs, not lanes.
	CUs int
	// Lanes is the number of SIMT/SIMD lanes the device executes
	// vectorizable work on: CUDA cores / stream processors for GPUs,
	// hardware threads × vector width for CPUs.
	Lanes int

	// Clocks in MHz as printed in Table 1 (min/max/turbo; zero if n/a).
	MinClockMHz, MaxClockMHz, TurboClockMHz float64

	// Cache sizes as printed in Table 1 (per-unit L1 and L2; L3 total,
	// zero if absent).
	L1KiB, L2KiB, L3KiB float64

	TDPWatts   float64
	IdleWatts  float64
	LaunchDate string

	// PeakGFLOPS is the single-precision peak under the paper's software
	// stack. For KNL this is already halved: Intel removed AVX-512 support
	// from its OpenCL compiler, limiting vectors to 256 bits (§4.2).
	PeakGFLOPS float64
	// VectorEff is the fraction of PeakGFLOPS the OpenCL driver typically
	// realises on vectorizable kernels.
	VectorEff float64
	// ScalarIPC is the per-CU instructions-per-cycle on serial,
	// non-vectorizable code (superscalar CPUs ≈ 3, GPUs ≈ 1, KNL < 1).
	ScalarIPC float64

	// DRAMBandwidthGBs is peak main/global memory bandwidth.
	DRAMBandwidthGBs float64
	// DRAMLatencyNs is main-memory latency.
	DRAMLatencyNs float64
	// MLP is the sustained number of outstanding memory requests.
	MLP float64

	// LaunchOverheadUs is the host-side cost of one kernel enqueue —
	// the parameter behind the paper's nw finding (Fig. 3b), where AMD's
	// higher per-launch cost degrades wavefront codes at large sizes.
	LaunchOverheadUs float64
	// TransferGBs is host↔device bandwidth (PCIe for discrete GPUs,
	// effectively memcpy for CPU devices).
	TransferGBs float64

	// CVBase is the baseline coefficient of variation of kernel times; the
	// paper observes CV grows as clock falls, which the noise model
	// implements on top of this.
	CVBase float64
}

// ClockGHz returns the sustained compute clock used by the model: the boost
// clock when present, otherwise the base clock.
func (d *DeviceSpec) ClockGHz() float64 {
	c := d.MaxClockMHz
	if c == 0 {
		c = d.MinClockMHz
	}
	return c / 1000
}

// AggregateL1KiB is the total first-level capacity available to a kernel
// spread across all compute units. The KNL is not aggregated: the Intel
// OpenCL runtime distributes work with no tile affinity, so the effective
// per-kernel near cache is a single core's slice (part of why the paper
// finds KNL performance poor, §5.1).
func (d *DeviceSpec) AggregateL1KiB() float64 {
	if d.Class == MIC {
		return d.L1KiB
	}
	return d.L1KiB * float64(d.CUs)
}

// AggregateL2KiB is the total second-level capacity. Nvidia entries in
// Table 1 already report the aggregated L2, as do AMD and KNL; CPU L2 is
// per-core and must be multiplied out.
func (d *DeviceSpec) AggregateL2KiB() float64 {
	if d.Class == CPU {
		return d.L2KiB * float64(d.CUs)
	}
	return d.L2KiB
}

// Hierarchy builds the analytical cache model for the device.
func (d *DeviceSpec) Hierarchy() cache.Hierarchy {
	bw := d.DRAMBandwidthGBs
	var levels []cache.Level
	switch d.Class {
	case CPU:
		levels = []cache.Level{
			{Name: "L1", SizeKiB: d.AggregateL1KiB(), BandwidthGBs: bw * 14, LatencyNs: 1.0},
			{Name: "L2", SizeKiB: d.AggregateL2KiB(), BandwidthGBs: bw * 8, LatencyNs: 3.5},
			{Name: "L3", SizeKiB: d.L3KiB, BandwidthGBs: bw * 4, LatencyNs: 12},
		}
	case MIC:
		levels = []cache.Level{
			{Name: "L1", SizeKiB: d.AggregateL1KiB(), BandwidthGBs: bw * 10, LatencyNs: 2.5},
			{Name: "L2", SizeKiB: d.AggregateL2KiB(), BandwidthGBs: bw * 4, LatencyNs: 14},
		}
	default: // GPUs
		levels = []cache.Level{
			{Name: "L1", SizeKiB: d.AggregateL1KiB(), BandwidthGBs: bw * 6, LatencyNs: 8},
			{Name: "L2", SizeKiB: d.AggregateL2KiB(), BandwidthGBs: bw * 3, LatencyNs: 60},
		}
	}
	return cache.Hierarchy{
		Levels:           levels,
		DRAMBandwidthGBs: bw,
		DRAMLatencyNs:    d.DRAMLatencyNs,
		MLP:              d.MLP,
		LineBytes:        64,
	}
}

// Validate performs basic sanity checks on a spec.
func (d *DeviceSpec) Validate() error {
	switch {
	case d.ID == "" || d.Name == "":
		return fmt.Errorf("sim: device missing identifier")
	case d.CUs <= 0 || d.Lanes <= 0 || d.CoreCount <= 0:
		return fmt.Errorf("sim: %s: non-positive core geometry", d.ID)
	case d.ClockGHz() <= 0:
		return fmt.Errorf("sim: %s: no clock", d.ID)
	case d.PeakGFLOPS <= 0 || d.DRAMBandwidthGBs <= 0:
		return fmt.Errorf("sim: %s: missing peak rates", d.ID)
	case d.TDPWatts <= d.IdleWatts:
		return fmt.Errorf("sim: %s: TDP must exceed idle power", d.ID)
	case d.VectorEff <= 0 || d.VectorEff > 1:
		return fmt.Errorf("sim: %s: VectorEff out of (0,1]", d.ID)
	case d.LaunchOverheadUs <= 0:
		return fmt.Errorf("sim: %s: missing launch overhead", d.ID)
	}
	return d.Hierarchy().Validate()
}
