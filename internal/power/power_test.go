package power

import (
	"testing"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/sim"
)

func spec(t *testing.T, id string) *sim.DeviceSpec {
	t.Helper()
	d, err := sim.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMeterScopeSelection(t *testing.T) {
	// §4.3: RAPL on Intel platforms, NVML on Nvidia GPUs.
	if m := NewMeter(spec(t, "i7-6700k")); m.Scope != ScopeRAPLPP0 {
		t.Error("CPU should use RAPL PP0")
	}
	if m := NewMeter(spec(t, "knl-7210")); m.Scope != ScopeRAPLPP0 {
		t.Error("MIC should use RAPL")
	}
	if m := NewMeter(spec(t, "gtx1080")); m.Scope != ScopeNVMLBoard {
		t.Error("GPU should use NVML board power")
	}
}

func TestPowerBounds(t *testing.T) {
	for _, id := range []string{"i7-6700k", "gtx1080", "k20m"} {
		m := NewMeter(spec(t, id))
		p0 := m.Power(0)
		p1 := m.Power(1)
		if p0 <= 0 {
			t.Errorf("%s: idle power %f", id, p0)
		}
		if p1 <= p0 {
			t.Errorf("%s: full power %f not above idle %f", id, p1, p0)
		}
		if p1 > m.Spec.TDPWatts {
			t.Errorf("%s: full power %f above TDP %f", id, p1, m.Spec.TDPWatts)
		}
		// Clamping.
		if m.Power(-1) != p0 || m.Power(2) != p1 {
			t.Errorf("%s: utilization not clamped", id)
		}
	}
}

func TestEnergyScalesWithTime(t *testing.T) {
	m := NewMeter(spec(t, "gtx1080"))
	e1 := m.Energy(1e9, 0.8) // one second
	e2 := m.Energy(2e9, 0.8)
	if e2 <= e1 || e1 <= 0 {
		t.Fatalf("energy not linear in time: %f, %f", e1, e2)
	}
	if m.Energy(0, 0.8) != 0 || m.Energy(-5, 0.8) != 0 {
		t.Fatal("non-positive durations must give zero energy")
	}
}

func TestCPUEnergyExceedsGPUForLargeVectorKernels(t *testing.T) {
	// Fig. 5: at the large problem size every benchmark except crc uses
	// more energy on the i7-6700K than on the GTX 1080.
	cpu := spec(t, "i7-6700k")
	gpu := spec(t, "gtx1080")
	p := &sim.KernelProfile{
		Name: "srad-large", WorkItems: 2048 * 1024,
		FlopsPerItem: 30, LoadBytesPerItem: 40, StoreBytesPerItem: 8,
		WorkingSetBytes: 100 << 20, Pattern: cache.Stencil, TemporalReuse: 0.6,
		Vectorizable: true,
	}
	cm, gm := sim.NewModel(cpu), sim.NewModel(gpu)
	cb, gb := cm.KernelTime(p), gm.KernelTime(p)
	ce := NewMeter(cpu).KernelEnergy(cm, cb)
	ge := NewMeter(gpu).KernelEnergy(gm, gb)
	if ce <= ge {
		t.Fatalf("CPU energy %f J should exceed GPU energy %f J for a large vector kernel", ce, ge)
	}
}

func TestCRCEnergyFavoursCPU(t *testing.T) {
	// Fig. 5's exception: crc's serial integer profile burns more on GPU.
	cpu := spec(t, "i7-6700k")
	gpu := spec(t, "gtx1080")
	p := &sim.KernelProfile{
		Name: "crc-large", WorkItems: 4096,
		IntOpsPerItem: 8 * 1024, LoadBytesPerItem: 1024,
		WorkingSetBytes: 4 << 20, Pattern: cache.Streaming, TemporalReuse: 0.3,
		Vectorizable: false,
	}
	cm, gm := sim.NewModel(cpu), sim.NewModel(gpu)
	cb, gb := cm.KernelTime(p), gm.KernelTime(p)
	ce := NewMeter(cpu).KernelEnergy(cm, cb)
	ge := NewMeter(gpu).KernelEnergy(gm, gb)
	if ge <= ce {
		t.Fatalf("GPU energy %f J should exceed CPU energy %f J for crc", ge, ce)
	}
}

func TestScopeStrings(t *testing.T) {
	if ScopeRAPLPP0.String() != "rapl:::PP0_ENERGY:PACKAGE0" {
		t.Error(ScopeRAPLPP0.String())
	}
	if ScopeNVMLBoard.String() != "nvml:::power" {
		t.Error(ScopeNVMLBoard.String())
	}
	if Scope(7).String() != "unknown" {
		t.Error("unknown scope")
	}
	if ScopeNVMLBoard.SensorSigmaW() != 5 {
		t.Error("NVML sensor noise should be ±5 W per §5.2")
	}
}
