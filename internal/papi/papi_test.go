package papi

import (
	"strings"
	"testing"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/sim"
)

func skylake(t *testing.T) *sim.DeviceSpec {
	t.Helper()
	d, err := sim.Lookup("i7-6700k")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func deriveFor(t *testing.T, wsBytes int64) Set {
	t.Helper()
	spec := skylake(t)
	p := &sim.KernelProfile{
		Name: "k", WorkItems: 1 << 16,
		FlopsPerItem: 10, LoadBytesPerItem: 16, StoreBytesPerItem: 4,
		WorkingSetBytes: wsBytes, Pattern: cache.Streaming, Vectorizable: true,
	}
	model := sim.NewModel(spec)
	b := model.KernelTime(p)
	return Derive(spec, p, b.Traffic, b.TotalNs).Set()
}

func TestCountersReflectCacheResidency(t *testing.T) {
	// The paper uses these counters to verify size selection (§4.4): an
	// L1-resident set shows ~no L1 misses; a DRAM-size set shows L3 misses.
	tiny := deriveFor(t, 16<<10)
	large := deriveFor(t, 64<<20)
	if tiny.Values[L1DCM] > 0.01*tiny.Values[TotIns] {
		t.Fatalf("L1-resident working set shows L1 miss rate %g", tiny.Values[L1DCM]/tiny.Values[TotIns])
	}
	if large.Values[L3TCM] <= tiny.Values[L3TCM] {
		t.Fatal("DRAM-size working set should show more L3 misses than an L1-resident one")
	}
	if large.L3MissRate <= 0 {
		t.Fatal("large set must have positive L3 miss rate")
	}
	if large.L3MissRatio < 0 || large.L3MissRatio > 1 {
		t.Fatalf("L3 miss ratio %f out of [0,1]", large.L3MissRatio)
	}
}

func TestMissHierarchyOrdering(t *testing.T) {
	s := deriveFor(t, 4<<20) // L3-resident: misses L1 and L2, not L3
	if s.Values[L1DCM] < s.Values[L2DCM] {
		t.Fatal("L1 misses must be >= L2 misses (inclusive hierarchy)")
	}
	if s.Values[L2DCM] < s.Values[L3TCM] {
		t.Fatal("L2 misses must be >= L3 misses")
	}
}

func TestIPCPositiveAndBounded(t *testing.T) {
	s := deriveFor(t, 16<<10)
	if s.IPC <= 0 {
		t.Fatal("IPC must be positive")
	}
	// 4-wide superscalar with ~8 HW threads cannot exceed ~32 retiring/cycle.
	if s.IPC > 64 {
		t.Fatalf("IPC %f implausible", s.IPC)
	}
}

func TestTLBMisses(t *testing.T) {
	spec := skylake(t)
	model := sim.NewModel(spec)
	mk := func(ws int64, pat cache.Pattern) Set {
		p := &sim.KernelProfile{
			Name: "k", WorkItems: 1 << 16, IntOpsPerItem: 4,
			LoadBytesPerItem: 64, WorkingSetBytes: ws, Pattern: pat, Vectorizable: true,
		}
		b := model.KernelTime(p)
		return Derive(spec, p, b.Traffic, b.TotalNs).Set()
	}
	small := mk(1<<20, cache.Random)   // covered by TLB reach (6 MiB)
	hugeRnd := mk(1<<30, cache.Random) // far beyond TLB reach
	hugeSeq := mk(1<<30, cache.Streaming)
	if small.Values[TLBDM] != 0 {
		t.Fatalf("TLB-covered set shows %g misses", small.Values[TLBDM])
	}
	if hugeRnd.Values[TLBDM] <= 0 {
		t.Fatal("1 GiB random walk must miss the TLB")
	}
	if hugeSeq.Values[TLBDM] >= hugeRnd.Values[TLBDM] {
		t.Fatal("sequential TLB misses should be far below random")
	}
}

func TestBranchCounters(t *testing.T) {
	spec := skylake(t)
	model := sim.NewModel(spec)
	p := &sim.KernelProfile{
		Name: "b", WorkItems: 1000, IntOpsPerItem: 10, BranchesPerItem: 5,
		Divergence: 0.5, WorkingSetBytes: 1 << 10, Pattern: cache.Streaming, Vectorizable: true,
		LoadBytesPerItem: 4,
	}
	b := model.KernelTime(p)
	s := Derive(spec, p, b.Traffic, b.TotalNs).Set()
	if s.Values[BrIns] != 5000 {
		t.Fatalf("BR_INS %g, want 5000", s.Values[BrIns])
	}
	if s.Values[BrMsp] <= 0 || s.Values[BrMsp] >= s.Values[BrIns] {
		t.Fatalf("BR_MSP %g out of (0, BR_INS)", s.Values[BrMsp])
	}
}

// TestCountsAdd: a measurement's counts are its launches' counts summed in
// launch order, and the set built from the sums derives its rates from
// them.
func TestCountsAdd(t *testing.T) {
	spec := skylake(t)
	p := &sim.KernelProfile{
		Name: "k", WorkItems: 1 << 16,
		FlopsPerItem: 10, LoadBytesPerItem: 16, StoreBytesPerItem: 4,
		WorkingSetBytes: 16 << 10, Pattern: cache.Streaming, Vectorizable: true,
	}
	bd := sim.NewModel(spec).KernelTime(p)
	one := Derive(spec, p, bd.Traffic, bd.TotalNs)
	before := one.Set().Values[TotIns]

	a := one
	a.Add(one)
	sum := a.Set()
	if sum.Values[TotIns] != 2*before {
		t.Fatalf("Add did not accumulate: %g vs 2×%g", sum.Values[TotIns], before)
	}
	if sum.IPC <= 0 || sum.IPC != sum.Values[TotIns]/sum.Values[TotCyc] {
		t.Fatalf("IPC %g is not derived from the sums", sum.IPC)
	}
	if len(sum.Values) != 8 {
		t.Fatalf("%d counters, want 8", len(sum.Values))
	}
	var zero Counts
	zero.Add(one)
	if zero.Set().Values[TotIns] != before {
		t.Fatal("Add into zero counts failed")
	}
	if zero != one {
		t.Fatal("adding one launch's counts to zero changed them")
	}
}

func TestSetString(t *testing.T) {
	s := deriveFor(t, 16<<10)
	str := s.String()
	if !strings.Contains(str, "PAPI_TOT_INS") || !strings.Contains(str, "IPC=") {
		t.Fatalf("String() missing fields: %s", str)
	}
}

func TestGPUCountsPerLaneInstructions(t *testing.T) {
	gpu, err := sim.Lookup("gtx1080")
	if err != nil {
		t.Fatal(err)
	}
	cpuSpec := skylake(t)
	p := &sim.KernelProfile{
		Name: "k", WorkItems: 1 << 16, FlopsPerItem: 100,
		LoadBytesPerItem: 4, WorkingSetBytes: 1 << 20, Pattern: cache.Streaming, Vectorizable: true,
	}
	gb := sim.NewModel(gpu).KernelTime(p)
	cb := sim.NewModel(cpuSpec).KernelTime(p)
	gs := Derive(gpu, p, gb.Traffic, gb.TotalNs).Set()
	cs := Derive(cpuSpec, p, cb.Traffic, cb.TotalNs).Set()
	if gs.Values[TotIns] <= cs.Values[TotIns] {
		t.Fatal("GPU per-lane instruction count should exceed CPU vectorised count")
	}
}
