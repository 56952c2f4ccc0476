package sim

import (
	"fmt"
	"sort"
)

// The catalogue reproduces Table 1 of the paper. Fields not present in the
// table (memory bandwidth, latency, launch overhead, idle power) are taken
// from vendor specifications and the measurement literature for each part;
// they are inputs to the timing model, not fitted values.
//
// Two deliberate divergences from the printed table, both documented in
// DESIGN.md: the R9 295x2 is a dual-die card of which OpenCL exposes one die
// as a device (Lanes = 2816, while CoreCount keeps the table's 5632), and
// the RX 480's effective lane count is 2304 (the table's 4096 is a
// transcription slip in the original paper; using it would make a 150 W
// Polaris card outrun a GTX 1080 Ti, contradicting the paper's own figures).
var registry = []*DeviceSpec{
	{
		ID: "e5-2697v2", Name: "Xeon E5-2697 v2", Vendor: "Intel", Class: CPU, Series: "Ivy Bridge",
		CoreCount: 24, CoreKind: "Hyperthreaded cores", CUs: 12, Lanes: 24 * 8,
		MinClockMHz: 1200, MaxClockMHz: 2700, TurboClockMHz: 3500,
		L1KiB: 32, L2KiB: 256, L3KiB: 30720,
		TDPWatts: 130, IdleWatts: 24, LaunchDate: "Q3 2013",
		// 12 cores × 3.0 GHz all-core turbo × 16 SP FLOP/cycle (AVX mul+add).
		PeakGFLOPS: 576, VectorEff: 0.55, ScalarIPC: 2.8,
		DRAMBandwidthGBs: 59.7, DRAMLatencyNs: 85, MLP: 10 * 12,
		LaunchOverheadUs: 5, TransferGBs: 20, CVBase: 0.016,
	},
	{
		ID: "i7-6700k", Name: "i7-6700K", Vendor: "Intel", Class: CPU, Series: "Skylake",
		CoreCount: 8, CoreKind: "Hyperthreaded cores", CUs: 4, Lanes: 8 * 8,
		MinClockMHz: 800, MaxClockMHz: 4000, TurboClockMHz: 4300,
		L1KiB: 32, L2KiB: 256, L3KiB: 8192,
		TDPWatts: 91, IdleWatts: 10, LaunchDate: "Q3 2015",
		// 4 cores × 4.2 GHz × 32 SP FLOP/cycle (2×AVX2 FMA).
		PeakGFLOPS: 537, VectorEff: 0.55, ScalarIPC: 3.0,
		DRAMBandwidthGBs: 34.1, DRAMLatencyNs: 75, MLP: 10 * 4,
		LaunchOverheadUs: 4.5, TransferGBs: 16, CVBase: 0.012,
	},
	{
		ID: "i5-3550", Name: "i5-3550", Vendor: "Intel", Class: CPU, Series: "Ivy Bridge",
		CoreCount: 4, CoreKind: "Cores", CUs: 4, Lanes: 4 * 8,
		MinClockMHz: 1600, MaxClockMHz: 3380, TurboClockMHz: 3700,
		L1KiB: 32, L2KiB: 256, L3KiB: 6144,
		TDPWatts: 77, IdleWatts: 8, LaunchDate: "Q2 2012",
		// 4 cores × 3.55 GHz × 16 SP FLOP/cycle.
		PeakGFLOPS: 227, VectorEff: 0.55, ScalarIPC: 2.7,
		DRAMBandwidthGBs: 25.6, DRAMLatencyNs: 80, MLP: 10 * 4,
		LaunchOverheadUs: 5, TransferGBs: 12, CVBase: 0.015,
	},
	{
		ID: "titanx", Name: "Titan X", Vendor: "Nvidia", Class: ConsumerGPU, Series: "Pascal",
		CoreCount: 3584, CoreKind: "CUDA cores", CUs: 28, Lanes: 3584,
		MinClockMHz: 1417, MaxClockMHz: 1531,
		L1KiB: 48, L2KiB: 2048,
		TDPWatts: 250, IdleWatts: 15, LaunchDate: "Q3 2016",
		PeakGFLOPS: 10974, VectorEff: 0.85, ScalarIPC: 0.6,
		DRAMBandwidthGBs: 480, DRAMLatencyNs: 290, MLP: 28 * 64,
		LaunchOverheadUs: 6, TransferGBs: 12, CVBase: 0.02,
	},
	{
		ID: "gtx1080", Name: "GTX 1080", Vendor: "Nvidia", Class: ConsumerGPU, Series: "Pascal",
		CoreCount: 2560, CoreKind: "CUDA cores", CUs: 20, Lanes: 2560,
		MinClockMHz: 1607, MaxClockMHz: 1733,
		L1KiB: 48, L2KiB: 2048,
		TDPWatts: 180, IdleWatts: 10, LaunchDate: "Q2 2016",
		PeakGFLOPS: 8873, VectorEff: 0.85, ScalarIPC: 0.6,
		DRAMBandwidthGBs: 320, DRAMLatencyNs: 285, MLP: 20 * 64,
		LaunchOverheadUs: 6, TransferGBs: 12, CVBase: 0.019,
	},
	{
		ID: "gtx1080ti", Name: "GTX 1080 Ti", Vendor: "Nvidia", Class: ConsumerGPU, Series: "Pascal",
		CoreCount: 3584, CoreKind: "CUDA cores", CUs: 28, Lanes: 3584,
		MinClockMHz: 1480, MaxClockMHz: 1582,
		L1KiB: 48, L2KiB: 2048,
		TDPWatts: 250, IdleWatts: 15, LaunchDate: "Q1 2017",
		PeakGFLOPS: 11340, VectorEff: 0.85, ScalarIPC: 0.6,
		DRAMBandwidthGBs: 484, DRAMLatencyNs: 290, MLP: 28 * 64,
		LaunchOverheadUs: 6, TransferGBs: 12, CVBase: 0.02,
	},
	{
		ID: "k20m", Name: "K20m", Vendor: "Nvidia", Class: HPCGPU, Series: "Kepler",
		CoreCount: 2496, CoreKind: "CUDA cores", CUs: 13, Lanes: 2496,
		MinClockMHz: 706,
		L1KiB:       64, L2KiB: 1536,
		TDPWatts: 225, IdleWatts: 25, LaunchDate: "Q4 2012",
		PeakGFLOPS: 3524, VectorEff: 0.7, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 208, DRAMLatencyNs: 350, MLP: 13 * 48,
		LaunchOverheadUs: 8, TransferGBs: 6, CVBase: 0.035,
	},
	{
		ID: "k40m", Name: "K40m", Vendor: "Nvidia", Class: HPCGPU, Series: "Kepler",
		CoreCount: 2880, CoreKind: "CUDA cores", CUs: 15, Lanes: 2880,
		MinClockMHz: 745, MaxClockMHz: 875,
		L1KiB: 64, L2KiB: 1536,
		TDPWatts: 235, IdleWatts: 25, LaunchDate: "Q4 2013",
		PeakGFLOPS: 5040, VectorEff: 0.7, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 288, DRAMLatencyNs: 340, MLP: 15 * 48,
		LaunchOverheadUs: 8, TransferGBs: 12, CVBase: 0.032,
	},
	{
		ID: "s9150", Name: "FirePro S9150", Vendor: "AMD", Class: HPCGPU, Series: "Hawaii",
		CoreCount: 2816, CoreKind: "Stream processors", CUs: 44, Lanes: 2816,
		MinClockMHz: 900,
		L1KiB:       16, L2KiB: 1024,
		TDPWatts: 235, IdleWatts: 20, LaunchDate: "Q3 2014",
		PeakGFLOPS: 5069, VectorEff: 0.75, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 320, DRAMLatencyNs: 330, MLP: 44 * 40,
		LaunchOverheadUs: 22, TransferGBs: 12, CVBase: 0.03,
	},
	{
		ID: "hd7970", Name: "HD 7970", Vendor: "AMD", Class: ConsumerGPU, Series: "Tahiti",
		CoreCount: 2048, CoreKind: "Stream processors", CUs: 32, Lanes: 2048,
		MinClockMHz: 925, MaxClockMHz: 1010,
		L1KiB: 16, L2KiB: 768,
		TDPWatts: 250, IdleWatts: 15, LaunchDate: "Q4 2011",
		PeakGFLOPS: 4137, VectorEff: 0.75, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 264, DRAMLatencyNs: 340, MLP: 32 * 40,
		LaunchOverheadUs: 22, TransferGBs: 6, CVBase: 0.031,
	},
	{
		ID: "r9-290x", Name: "R9 290X", Vendor: "AMD", Class: ConsumerGPU, Series: "Hawaii",
		CoreCount: 2816, CoreKind: "Stream processors", CUs: 44, Lanes: 2816,
		MinClockMHz: 1000,
		L1KiB:       16, L2KiB: 1024,
		TDPWatts: 250, IdleWatts: 20, LaunchDate: "Q3 2014",
		PeakGFLOPS: 5632, VectorEff: 0.75, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 320, DRAMLatencyNs: 330, MLP: 44 * 40,
		LaunchOverheadUs: 22, TransferGBs: 12, CVBase: 0.029,
	},
	{
		ID: "r9-295x2", Name: "R9 295x2", Vendor: "AMD", Class: ConsumerGPU, Series: "Hawaii",
		CoreCount: 5632, CoreKind: "Stream processors", CUs: 44, Lanes: 2816,
		MinClockMHz: 1018,
		L1KiB:       16, L2KiB: 1024,
		TDPWatts: 500, IdleWatts: 40, LaunchDate: "Q2 2014",
		// One die: OpenCL exposes each Hawaii die as a separate device and
		// the benchmarks use one.
		PeakGFLOPS: 5733, VectorEff: 0.75, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 320, DRAMLatencyNs: 330, MLP: 44 * 40,
		LaunchOverheadUs: 22, TransferGBs: 12, CVBase: 0.029,
	},
	{
		ID: "r9-furyx", Name: "R9 Fury X", Vendor: "AMD", Class: ConsumerGPU, Series: "Fuji",
		CoreCount: 4096, CoreKind: "Stream processors", CUs: 64, Lanes: 4096,
		MinClockMHz: 1050,
		L1KiB:       16, L2KiB: 2048,
		TDPWatts: 273, IdleWatts: 20, LaunchDate: "Q2 2015",
		PeakGFLOPS: 8602, VectorEff: 0.75, ScalarIPC: 0.55,
		// HBM.
		DRAMBandwidthGBs: 512, DRAMLatencyNs: 300, MLP: 64 * 40,
		LaunchOverheadUs: 22, TransferGBs: 12, CVBase: 0.026,
	},
	{
		ID: "rx480", Name: "RX 480", Vendor: "AMD", Class: ConsumerGPU, Series: "Polaris",
		CoreCount: 4096, CoreKind: "Stream processors", CUs: 36, Lanes: 2304,
		MinClockMHz: 1120, MaxClockMHz: 1266,
		L1KiB: 16, L2KiB: 2048,
		TDPWatts: 150, IdleWatts: 10, LaunchDate: "Q2 2016",
		PeakGFLOPS: 5834, VectorEff: 0.75, ScalarIPC: 0.55,
		DRAMBandwidthGBs: 256, DRAMLatencyNs: 310, MLP: 36 * 40,
		LaunchOverheadUs: 22, TransferGBs: 12, CVBase: 0.024,
	},
	{
		ID: "knl-7210", Name: "Xeon Phi 7210", Vendor: "Intel", Class: MIC, Series: "KNL",
		CoreCount: 256, CoreKind: "Hardware threads (64 cores × 4)", CUs: 64, Lanes: 256 * 8,
		MinClockMHz: 1300, MaxClockMHz: 1500,
		L1KiB: 32, L2KiB: 1024,
		TDPWatts: 215, IdleWatts: 65, LaunchDate: "Q2 2016",
		// Half of AVX-512 peak: the Intel OpenCL stack only emits 256-bit
		// vectors on KNL (§4.2), and realises little of even that. OpenCL
		// buffers land in DDR4 (no MCDRAM path) and work distribution has
		// no tile affinity, so sustained bandwidth is far below spec.
		PeakGFLOPS: 3072, VectorEff: 0.05, ScalarIPC: 0.15,
		DRAMBandwidthGBs: 22, DRAMLatencyNs: 160, MLP: 64,
		LaunchOverheadUs: 30, TransferGBs: 10, CVBase: 0.022,
	},
}

// Devices returns the full catalogue in the paper's Table 1 / figure order.
func Devices() []*DeviceSpec {
	out := make([]*DeviceSpec, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds a device by its short ID or full name (case-sensitive).
func Lookup(id string) (*DeviceSpec, error) {
	for _, d := range registry {
		if d.ID == id || d.Name == id {
			return d, nil
		}
	}
	known := make([]string, len(registry))
	for i, d := range registry {
		known[i] = d.ID
	}
	sort.Strings(known)
	return nil, fmt.Errorf("sim: unknown device %q (known: %v)", id, known)
}

// LookupAll resolves a list of IDs (or full names) in order — the fleet
// form used by the scheduler. The first unknown entry fails with the
// sorted catalogue, exactly like Lookup.
func LookupAll(ids []string) ([]*DeviceSpec, error) {
	out := make([]*DeviceSpec, 0, len(ids))
	for _, id := range ids {
		d, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
