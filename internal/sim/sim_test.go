package sim

import (
	"math"
	"testing"
	"testing/quick"

	"opendwarfs/internal/cache"
)

func TestRegistryComposition(t *testing.T) {
	devs := Devices()
	if len(devs) != 15 {
		t.Fatalf("catalogue has %d devices, want 15 (Table 1)", len(devs))
	}
	counts := map[Class]int{}
	vendors := map[string]int{}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			t.Errorf("device %s invalid: %v", d.ID, err)
		}
		counts[d.Class]++
		vendors[d.Vendor]++
	}
	// Paper §4.1: three Intel CPUs, five Nvidia GPUs, six AMD GPUs, one MIC.
	if counts[CPU] != 3 {
		t.Errorf("CPU count %d, want 3", counts[CPU])
	}
	if counts[MIC] != 1 {
		t.Errorf("MIC count %d, want 1", counts[MIC])
	}
	if got := counts[ConsumerGPU] + counts[HPCGPU]; got != 11 {
		t.Errorf("GPU count %d, want 11", got)
	}
	if vendors["Nvidia"] != 5 {
		t.Errorf("Nvidia count %d, want 5", vendors["Nvidia"])
	}
	if vendors["AMD"] != 6 {
		t.Errorf("AMD count %d, want 6", vendors["AMD"])
	}
	if vendors["Intel"] != 4 {
		t.Errorf("Intel count %d, want 4", vendors["Intel"])
	}
}

func TestRegistryUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Devices() {
		if seen[d.ID] {
			t.Errorf("duplicate device ID %s", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestLookup(t *testing.T) {
	d, err := Lookup("i7-6700k")
	if err != nil {
		t.Fatal(err)
	}
	if d.Series != "Skylake" {
		t.Fatalf("i7-6700k series %q", d.Series)
	}
	if _, err := Lookup("GTX 1080"); err != nil {
		t.Fatalf("lookup by full name failed: %v", err)
	}
	if _, err := Lookup("rtx9090"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestByClass(t *testing.T) {
	counts := map[Class]int{}
	for _, d := range Devices() {
		counts[d.Class]++
	}
	if got := counts[HPCGPU]; got != 3 {
		t.Fatalf("HPC GPU count %d, want 3 (K20m, K40m, S9150)", got)
	}
	if got := counts[CPU]; got != 3 {
		t.Fatalf("CPU count %d, want 3", got)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{CPU: "CPU", ConsumerGPU: "Consumer GPU", HPCGPU: "HPC GPU", MIC: "MIC", Class(9): "unknown"} {
		if c.String() != want {
			t.Errorf("Class(%d) = %q, want %q", c, c.String(), want)
		}
	}
	if CPU.IsGPU() || !ConsumerGPU.IsGPU() || !HPCGPU.IsGPU() || MIC.IsGPU() {
		t.Error("IsGPU misclassifies")
	}
}

func TestSkylakeHierarchyMatchesPaperSizing(t *testing.T) {
	d, _ := Lookup("i7-6700k")
	h := d.Hierarchy()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 1 / §4.4: tiny=32 KiB L1 per core, 256 KiB L2 per core,
	// 8192 KiB shared L3.
	if h.Levels[2].SizeKiB != 8192 {
		t.Fatalf("Skylake L3 %f KiB, want 8192", h.Levels[2].SizeKiB)
	}
}

func mustModel(t *testing.T, id string) *Model {
	t.Helper()
	d, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(d)
}

// A srad-like profile: bandwidth-bound stencil over a large grid.
func sradLikeProfile(items int64) *KernelProfile {
	return &KernelProfile{
		Name: "stencil", WorkItems: items,
		FlopsPerItem: 20, LoadBytesPerItem: 40, StoreBytesPerItem: 8,
		WorkingSetBytes: items * 48, Pattern: cache.Stencil,
		TemporalReuse: 0.6, Vectorizable: true,
	}
}

// A crc-like profile: serial table-driven integer code, no vectorization.
// Loads include the per-byte table lookups, as the real crc profile does.
func crcLikeProfile(items int64, bytesPerItem float64) *KernelProfile {
	return &KernelProfile{
		Name: "crc", WorkItems: items,
		IntOpsPerItem: bytesPerItem * 7, LoadBytesPerItem: bytesPerItem * 5,
		WorkingSetBytes: int64(float64(items) * bytesPerItem), Pattern: cache.Streaming,
		TemporalReuse: 0.8, Vectorizable: false,
	}
}

func TestDivergentComputeCodeFavoursGPUs(t *testing.T) {
	// Fig. 4b: nqueens (register-resident integer backtracking) runs
	// faster on GPUs than CPUs, unlike crc — the arithmetic-intensity
	// warp-boost separates the two scalar-code regimes.
	cpu := mustModel(t, "i7-6700k")
	gpu := mustModel(t, "gtx1080")
	p := &KernelProfile{
		Name: "nqueens", WorkItems: 48 << 10,
		IntOpsPerItem: 1.7e7, LoadBytesPerItem: 12, StoreBytesPerItem: 8,
		WorkingSetBytes: 1 << 19, Pattern: cache.Streaming,
		TemporalReuse: 0.9, Divergence: 0.5, Vectorizable: false,
	}
	tc := cpu.KernelTime(p).TotalNs
	tg := gpu.KernelTime(p).TotalNs
	if tg >= tc {
		t.Fatalf("GPU (%.3g ns) should beat CPU (%.3g ns) on divergent register-resident code", tg, tc)
	}
	if tc/tg > 10 {
		t.Fatalf("GPU advantage %.1fx implausibly large for divergent code (paper shows ~3x)", tc/tg)
	}
}

func TestGPUWinsBandwidthBoundStencil(t *testing.T) {
	cpu := mustModel(t, "i7-6700k")
	gpu := mustModel(t, "gtx1080")
	p := sradLikeProfile(2048 * 1024)
	tc := cpu.KernelTime(p).TotalNs
	tg := gpu.KernelTime(p).TotalNs
	if tg >= tc {
		t.Fatalf("GPU (%.0f ns) should beat CPU (%.0f ns) on a large bandwidth-bound stencil (Fig. 3a)", tg, tc)
	}
	// The gap should be roughly the bandwidth ratio (~9x), certainly >3x.
	if tc/tg < 3 {
		t.Fatalf("CPU/GPU ratio %.1f too small for a bandwidth-bound kernel", tc/tg)
	}
}

func TestCPUWinsSerialIntegerCode(t *testing.T) {
	// Fig. 1: crc executes fastest on CPU-type architectures.
	cpu := mustModel(t, "i7-6700k")
	for _, gid := range []string{"gtx1080", "k20m", "r9-290x", "knl-7210"} {
		gpu := mustModel(t, gid)
		p := crcLikeProfile(4096, 1024)
		tc := cpu.KernelTime(p).TotalNs
		tg := gpu.KernelTime(p).TotalNs
		if tc >= tg {
			t.Errorf("crc-like kernel: CPU (%.0f ns) should beat %s (%.0f ns)", tc, gid, tg)
		}
	}
}

func TestKNLPoorOnVectorCode(t *testing.T) {
	// §4.2/§5.1: KNL floating-point is crippled by the OpenCL stack.
	knl := mustModel(t, "knl-7210")
	cpu := mustModel(t, "i7-6700k")
	p := sradLikeProfile(1024 * 336)
	if knl.KernelTime(p).TotalNs <= cpu.KernelTime(p).TotalNs {
		t.Fatal("KNL should not beat the Skylake CPU on vector code under the Intel OpenCL stack")
	}
}

func TestTimeMonotoneInWork(t *testing.T) {
	m := mustModel(t, "gtx1080")
	prev := 0.0
	for _, items := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		tt := m.KernelTime(sradLikeProfile(items)).TotalNs
		if tt <= prev {
			t.Fatalf("time not increasing with work: %d items -> %.0f ns (prev %.0f)", items, tt, prev)
		}
		prev = tt
	}
}

func TestLaunchOverheadDominatesTinyGPUKernels(t *testing.T) {
	m := mustModel(t, "gtx1080")
	b := m.KernelTime(sradLikeProfile(256))
	if b.LaunchNs < 0.5*b.TotalNs {
		t.Fatalf("tiny kernel should be launch-dominated on a GPU: launch %.0f of %.0f ns", b.LaunchNs, b.TotalNs)
	}
}

func TestAMDLaunchOverheadExceedsNvidia(t *testing.T) {
	// The Fig. 3b mechanism: AMD's per-enqueue cost is higher.
	amd, _ := Lookup("r9-290x")
	nv, _ := Lookup("gtx1080")
	intel, _ := Lookup("i7-6700k")
	if amd.LaunchOverheadUs <= nv.LaunchOverheadUs {
		t.Fatal("AMD launch overhead should exceed Nvidia's")
	}
	if amd.LaunchOverheadUs <= intel.LaunchOverheadUs {
		t.Fatal("AMD launch overhead should exceed Intel's")
	}
}

func TestDivergenceSlowsKernels(t *testing.T) {
	m := mustModel(t, "gtx1080")
	// Compute-bound profile so the compute term is the binding constraint.
	p := &KernelProfile{
		Name: "nqueens", WorkItems: 1 << 20,
		IntOpsPerItem: 5000, LoadBytesPerItem: 8,
		WorkingSetBytes: 1 << 20, Pattern: cache.Random, Vectorizable: true,
	}
	base := m.KernelTime(p).TotalNs
	p.Divergence = 1
	if div := m.KernelTime(p).TotalNs; div <= base {
		t.Fatalf("full divergence should slow the kernel: %.0f <= %.0f", div, base)
	}
}

func TestSerialFractionCost(t *testing.T) {
	m := mustModel(t, "gtx1080")
	p := sradLikeProfile(1 << 20)
	base := m.KernelTime(p)
	p.SerialFraction = 0.1
	ser := m.KernelTime(p)
	if ser.TotalNs <= base.TotalNs {
		t.Fatal("serial fraction should add time")
	}
	if ser.SerialNs <= 0 {
		t.Fatal("serial term not reported")
	}
}

func TestTransferTime(t *testing.T) {
	m := mustModel(t, "gtx1080")
	small := m.TransferTime(64)
	big := m.TransferTime(64 << 20)
	if small <= 0 || big <= small {
		t.Fatalf("transfer times implausible: %f, %f", small, big)
	}
	// 64 MiB over ~12 GB/s PCIe ≈ 5.6 ms.
	if big < 3e6 || big > 2e7 {
		t.Fatalf("64 MiB transfer = %.0f ns, expected ~5.6e6", big)
	}
}

func TestUtilizationRange(t *testing.T) {
	f := func(items uint32, flops, bytes float64) bool {
		m := NewModel(registry[3])
		p := &KernelProfile{
			Name: "q", WorkItems: int64(items%1e6) + 1,
			FlopsPerItem:     math.Abs(math.Mod(flops, 1000)),
			LoadBytesPerItem: math.Abs(math.Mod(bytes, 1000)),
			WorkingSetBytes:  1 << 20, Pattern: cache.Streaming, Vectorizable: true,
		}
		b := m.KernelTime(p)
		u := m.Utilization(b)
		return u >= 0 && u <= 1 && b.TotalNs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidate(t *testing.T) {
	good := sradLikeProfile(100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*KernelProfile{
		{Name: "n", WorkItems: 0},
		{Name: "n", WorkItems: 1, FlopsPerItem: -1},
		{Name: "n", WorkItems: 1, Divergence: 2},
		{Name: "n", WorkItems: 1, SerialFraction: -0.1},
		{Name: "n", WorkItems: 1, TemporalReuse: 1.5},
		{Name: "n", WorkItems: 1, LoadBytesPerItem: -4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestProfileDerived(t *testing.T) {
	p := &KernelProfile{WorkItems: 10, FlopsPerItem: 4, IntOpsPerItem: 1, LoadBytesPerItem: 8, StoreBytesPerItem: 2}
	if got := p.TotalOps(); got != 50 {
		t.Fatalf("TotalOps=%f, want 50", got)
	}
	if got := p.TotalBytes(); got != 100 {
		t.Fatalf("TotalBytes=%f, want 100", got)
	}
	if got := p.ArithmeticIntensity(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("AI=%f, want 0.4", got)
	}
	zero := &KernelProfile{WorkItems: 1}
	if zero.ArithmeticIntensity() != 0 {
		t.Fatal("zero-traffic AI should be 0")
	}
}

func TestNoiseCVOrdering(t *testing.T) {
	// §5.1: lower-clock devices show greater CV, regardless of type.
	i7, _ := Lookup("i7-6700k")
	k20, _ := Lookup("k20m")
	if k20.CV() <= i7.CV() {
		t.Fatalf("K20m (706 MHz) CV %.4f should exceed i7-6700K (4.3 GHz) CV %.4f", k20.CV(), i7.CV())
	}
}

func TestNoiseDeterministic(t *testing.T) {
	d, _ := Lookup("gtx1080")
	a := NewNoise(d, "kmeans/tiny")
	b := NewNoise(d, "kmeans/tiny")
	for i := 0; i < 10; i++ {
		if a.Sample(1e6, 1) != b.Sample(1e6, 1) {
			t.Fatal("same-seed noise streams diverge")
		}
	}
	c := NewNoise(d, "kmeans/small")
	same := true
	for i := 0; i < 10; i++ {
		if a.Sample(1e6, 1) != c.Sample(1e6, 1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestNoiseStatistics(t *testing.T) {
	d, _ := Lookup("k20m")
	no := NewNoise(d, "stats")
	const n = 20000
	mean, m2 := 0.0, 0.0
	for i := 1; i <= n; i++ {
		x := no.Sample(1e6, 1)
		if x <= 0 {
			t.Fatal("non-positive noisy sample")
		}
		delta := x - mean
		mean += delta / float64(i)
		m2 += delta * (x - mean)
	}
	sd := math.Sqrt(m2 / float64(n-1))
	cv := sd / mean
	want := d.CV()
	if math.Abs(mean-1e6)/1e6 > 0.02 {
		t.Fatalf("noisy mean %.0f drifted from 1e6", mean)
	}
	if math.Abs(cv-want)/want > 0.15 {
		t.Fatalf("empirical CV %.4f, want ~%.4f", cv, want)
	}
}

func TestNoiseAveragingShrinksVariance(t *testing.T) {
	d, _ := Lookup("k20m")
	spread := func(iters int) float64 {
		no := NewNoise(d, "avg")
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 500; i++ {
			x := no.Sample(1e6, iters)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return hi - lo
	}
	if spread(100) >= spread(1) {
		t.Fatal("averaging over iterations should shrink sample spread")
	}
}

func TestSampleEnergyNonNegative(t *testing.T) {
	d, _ := Lookup("gtx1080")
	no := NewNoise(d, "energy")
	for i := 0; i < 1000; i++ {
		if e := no.SampleEnergy(0.5, 2.0, 5); e < 0 {
			t.Fatal("negative energy sample")
		}
	}
	if no.SampleEnergy(0, 1, 5) != 0 {
		t.Fatal("zero mean energy should sample to zero")
	}
}

func TestZeroProfileSafe(t *testing.T) {
	m := mustModel(t, "i7-6700k")
	b := m.KernelTime(&KernelProfile{Name: "empty", WorkItems: 1, Vectorizable: true})
	if b.TotalNs < b.LaunchNs {
		t.Fatal("total cannot be below launch overhead")
	}
	if no := NewNoise(m.Spec, "z"); no.Sample(0, 1) != 0 {
		t.Fatal("zero-mean sample should be zero")
	}
}
