package aiwc

import (
	"math"
	"strings"
	"testing"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/sim"
)

func sampleProfile() *sim.KernelProfile {
	return &sim.KernelProfile{
		Name: "k", WorkItems: 1000,
		FlopsPerItem: 10, IntOpsPerItem: 5,
		LoadBytesPerItem: 40, StoreBytesPerItem: 8,
		BranchesPerItem: 3, Divergence: 0.2,
		WorkingSetBytes: 1 << 20, Pattern: cache.Streaming, Vectorizable: true,
	}
}

func TestCharacterizeMixSumsToOne(t *testing.T) {
	m := Characterize(sampleProfile())
	sum := m.FlopFraction + m.IntFraction + m.LoadFraction + m.StoreFraction + m.BranchFraction
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("opcode mix sums to %f", sum)
	}
	if m.Parallelism != 1000 {
		t.Fatal("parallelism wrong")
	}
	if m.GranularityOps <= 0 || m.TotalOps <= 0 {
		t.Fatal("granularity/total missing")
	}
	if !strings.Contains(m.String(), "ai=") {
		t.Fatal("String() malformed")
	}
}

func TestDistanceProperties(t *testing.T) {
	a := Characterize(sampleProfile())
	if d := Distance(a, a); d != 0 {
		t.Fatalf("self distance %f", d)
	}
	p2 := sampleProfile()
	p2.Name = "crcish"
	p2.FlopsPerItem = 0
	p2.IntOpsPerItem = 100
	b := Characterize(p2)
	if Distance(a, b) <= 0 {
		t.Fatal("distinct kernels at zero distance")
	}
	if math.Abs(Distance(a, b)-Distance(b, a)) > 1e-12 {
		t.Fatal("distance not symmetric")
	}
}

func TestMostSimilarPair(t *testing.T) {
	p1 := sampleProfile()
	p1.Name = "a"
	p2 := sampleProfile()
	p2.Name = "b" // identical twin of a
	p3 := sampleProfile()
	p3.Name = "c"
	p3.IntOpsPerItem = 500
	ms := []Metrics{Characterize(p1), Characterize(p3), Characterize(p2)}
	x, y, d := MostSimilarPair(ms)
	names := x.Kernel + y.Kernel
	if !strings.Contains(names, "a") || !strings.Contains(names, "b") {
		t.Fatalf("most similar pair %s/%s, want a/b", x.Kernel, y.Kernel)
	}
	if d != 0 {
		t.Fatalf("twin distance %f", d)
	}
	if _, _, d := MostSimilarPair(ms[:1]); !math.IsNaN(d) {
		t.Fatal("singleton set should return NaN")
	}
}

func TestSortByName(t *testing.T) {
	ms := []Metrics{{Kernel: "z"}, {Kernel: "a"}, {Kernel: "m"}}
	SortByName(ms)
	if ms[0].Kernel != "a" || ms[2].Kernel != "z" {
		t.Fatal("sort broken")
	}
}

func TestVectorMatchesFeatureNames(t *testing.T) {
	m := Characterize(sampleProfile())
	names := FeatureNames()
	v := m.Vector()
	if len(v) != len(names) {
		t.Fatalf("vector has %d dims, FeatureNames %d", len(v), len(names))
	}
	// Mutating the returned name slice must not alias the package copy.
	names[0] = "clobbered"
	if FeatureNames()[0] == "clobbered" {
		t.Fatal("FeatureNames returns aliased slice")
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("dim %s is %v", FeatureNames()[i], x)
		}
	}
	// Vectorizable kernels carry the flag; coalescing zero means unset→1.
	if m.Vectorizable != 1 {
		t.Fatalf("vectorizable = %v, want 1", m.Vectorizable)
	}
	if m.Coalescing != 1 {
		t.Fatalf("unset coalescing = %v, want 1", m.Coalescing)
	}
}

func TestAggregateSingleKernelIsCharacterize(t *testing.T) {
	p := sampleProfile()
	agg := Aggregate([]*sim.KernelProfile{p})
	m := Characterize(p)
	av, mv := agg.Vector(), m.Vector()
	for i := range av {
		if av[i] != mv[i] {
			t.Fatalf("dim %s: aggregate %v != characterize %v", FeatureNames()[i], av[i], mv[i])
		}
	}
}

func TestAggregateWeightsByOps(t *testing.T) {
	big := sampleProfile() // all-flop-heavy
	small := &sim.KernelProfile{
		Name: "s", WorkItems: 10,
		IntOpsPerItem: 1, BranchesPerItem: 1, Divergence: 1,
		WorkingSetBytes: 1 << 10, Pattern: cache.Random,
	}
	agg := Aggregate([]*sim.KernelProfile{big, small})
	mBig := Characterize(big)
	// The dominant kernel's mix must dominate the aggregate.
	if math.Abs(agg.FlopFraction-mBig.FlopFraction) > 0.01 {
		t.Fatalf("aggregate flop fraction %v far from dominant kernel's %v", agg.FlopFraction, mBig.FlopFraction)
	}
	if agg.TotalOps <= mBig.TotalOps {
		t.Fatal("aggregate ops should sum across kernels")
	}
	if agg.FootprintBytes != mBig.FootprintBytes {
		t.Fatal("aggregate footprint should be the max across kernels")
	}
	if len(Aggregate(nil).Vector()) != len(FeatureNames()) {
		t.Fatal("empty aggregate vector malformed")
	}
}
