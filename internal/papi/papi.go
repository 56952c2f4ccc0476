// Package papi derives PAPI-style hardware event counts for simulated kernel
// executions. The paper collects these counters through LibSciBench to
// verify that each problem size exercises the intended level of the memory
// hierarchy (§4.3–4.4); here the same counter set is derived from the kernel
// workload profile and the device's analytical cache model.
//
// Derive gives one launch's eight counts as a fixed array (Counts). A
// benchmark iteration's counts are the sums of its launches' Counts, added
// in launch order, and its reported Set — the values by name and the rates
// derived from them — is built once from the sums (Counts.Set).
package papi

import (
	"fmt"
	"sort"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/sim"
)

// Counter names follow the PAPI preset events used in the paper (§4.3).
type Counter string

const (
	TotIns Counter = "PAPI_TOT_INS" // total instructions
	TotCyc Counter = "PAPI_TOT_CYC" // total cycles
	L1DCM  Counter = "PAPI_L1_DCM"  // L1 data cache misses
	L2DCM  Counter = "PAPI_L2_DCM"  // L2 data cache misses
	L3TCM  Counter = "PAPI_L3_TCM"  // L3 total cache misses
	TLBDM  Counter = "PAPI_TLB_DM"  // data TLB misses
	BrIns  Counter = "PAPI_BR_INS"  // branch instructions
	BrMsp  Counter = "PAPI_BR_MSP"  // mispredicted branches
)

// Positions of the counters in Counts.
const (
	totIns = iota
	totCyc
	l1DCM
	l2DCM
	l3TCM
	tlbDM
	brIns
	brMsp
	numCounters
)

// Counts holds the eight counter values of one kernel launch, or their sums
// over launches, indexed by position.
type Counts [numCounters]float64

// counterNames names each position of Counts.
var counterNames = [numCounters]Counter{
	totIns: TotIns, totCyc: TotCyc, l1DCM: L1DCM, l2DCM: L2DCM,
	l3TCM: L3TCM, tlbDM: TLBDM, brIns: BrIns, brMsp: BrMsp,
}

// Set is one sampled counter group for a kernel execution.
type Set struct {
	Values map[Counter]float64
	// IPC is instructions per cycle (§4.3's derived metric).
	IPC float64
	// L3RequestRate, L3MissRate and L3MissRatio are the three L3 metrics
	// the paper reports: requests/instructions, misses/instructions and
	// misses/requests.
	L3RequestRate float64
	L3MissRate    float64
	L3MissRatio   float64
	// TLBMissRate is TLB misses / instructions.
	TLBMissRate float64
}

// Derive computes the counts of one kernel launch on one device.
// timeNs is the modelled kernel duration used for cycle/IPC derivation.
func Derive(spec *sim.DeviceSpec, p *sim.KernelProfile, traffic cache.Traffic, timeNs float64) Counts {
	items := float64(p.WorkItems)

	// Memory accesses: one per 4-byte word of traffic (the benchmarks are
	// float32/int32 codes).
	accesses := items * (p.LoadBytesPerItem + p.StoreBytesPerItem) / 4

	// Retired instruction estimate. On CPUs the OpenCL compiler vectorises
	// the data-parallel body, so flops and memory ops retire as ~8-wide
	// vector instructions; accelerators count per-lane instructions.
	vecWidth := 1.0
	if spec.Class == sim.CPU && p.Vectorizable {
		vecWidth = 8
	}
	branches := items * p.BranchesPerItem
	const loopOverheadPerItem = 6 // index math, bounds, control
	ins := items*(p.FlopsPerItem+p.IntOpsPerItem)/vecWidth +
		accesses/vecWidth +
		2*branches +
		items*loopOverheadPerItem

	// Cache misses from the analytical hierarchy resolution. MissRate[i]
	// is the fraction of accesses served beyond level i.
	miss := func(i int) float64 {
		if i < len(traffic.MissRate) {
			return accesses * traffic.MissRate[i]
		}
		return accesses * traffic.DRAMFrac
	}

	// TLB: coverage of a standard 1536-entry, 4 KiB-page DTLB; beyond it,
	// random patterns miss in proportion to the uncovered footprint.
	tlbMisses := 0.0
	covered := 1536.0 * 4096
	if ws := float64(p.WorkingSetBytes); ws > covered {
		frac := (ws - covered) / ws
		perAccess := 0.002 // sequential: prefetched page walks
		if p.Pattern == cache.Random {
			perAccess = 0.5
		}
		tlbMisses = accesses * frac * perAccess
	}

	// Branch mispredictions: divergence is the architecture-independent
	// analogue of unpredictability.
	msp := branches * (0.01 + 0.3*p.Divergence)

	return Counts{
		totIns: ins,
		totCyc: timeNs * spec.ClockGHz(),
		l1DCM:  miss(0),
		l2DCM:  miss(1),
		l3TCM:  miss(2),
		tlbDM:  tlbMisses,
		brIns:  branches,
		brMsp:  msp,
	}
}

// Add accumulates another launch's counts (e.g. across the kernels of one
// benchmark iteration), each counter's sum taken in the order of the calls.
func (c *Counts) Add(o Counts) {
	for i, v := range o {
		c[i] += v
	}
}

// Set builds the counter set of c: its values by name and the rates derived
// from them. Counts never decrease as launches are added, so rates derived
// once from the sums equal rates recomputed after every launch.
func (c Counts) Set() Set {
	s := Set{Values: make(map[Counter]float64, numCounters)}
	for i, v := range c {
		s.Values[counterNames[i]] = v
	}
	ins := c[totIns]
	if cyc := c[totCyc]; cyc > 0 {
		s.IPC = ins / cyc
	}
	if ins > 0 {
		s.L3RequestRate = c[l2DCM] / ins // requests to L3 = misses beyond L2
		s.L3MissRate = c[l3TCM] / ins
		s.TLBMissRate = c[tlbDM] / ins
	}
	if req := c[l2DCM]; req > 0 {
		s.L3MissRatio = c[l3TCM] / req
	}
	return s
}

// String formats the set in a stable order for logs.
func (s Set) String() string {
	keys := make([]string, 0, len(s.Values))
	for k := range s.Values {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%.3g ", k, s.Values[Counter(k)])
	}
	return out + fmt.Sprintf("IPC=%.3f", s.IPC)
}
