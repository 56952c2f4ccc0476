// Package opencl is a pure-Go execution runtime modelled on the OpenCL 1.2
// host API, the programming model the paper targets (§1): platforms expose
// devices; contexts own buffers; in-order command queues accept host→device
// buffer writes and NDRange kernel launches; kernels execute over work-items
// grouped into work-groups; profiling events report per-command start/end
// times. It holds what the suite's benchmarks enqueue and no more: a
// work-item knows only its global ID, work-groups have no local memory or
// barriers, and the only transfer is a write.
//
// Kernels are ordinary Go closures, so they compute real, verifiable
// results on the host. Device heterogeneity is provided by internal/sim:
// each enqueued command is also run through the target device's analytical
// performance model, and the profiling timestamps on events come from that
// simulated device timeline. This is the substitution DESIGN.md documents
// for the paper's 15 physical accelerators.
package opencl

import (
	"fmt"
	"sync"

	"opendwarfs/internal/sim"
)

// DeviceType mirrors the OpenCL device type the paper's -t flag selects.
type DeviceType int

const (
	DeviceCPU DeviceType = iota
	DeviceGPU
	DeviceAccelerator
)

// String returns the OpenCL-style name of the device type.
func (t DeviceType) String() string {
	switch t {
	case DeviceCPU:
		return "CL_DEVICE_TYPE_CPU"
	case DeviceGPU:
		return "CL_DEVICE_TYPE_GPU"
	case DeviceAccelerator:
		return "CL_DEVICE_TYPE_ACCELERATOR"
	default:
		return "CL_DEVICE_TYPE_UNKNOWN"
	}
}

// Device is one OpenCL device backed by a simulated hardware spec.
type Device struct {
	// Index is the device's position within its platform (the -d flag).
	Index int
	Spec  *sim.DeviceSpec
	model *sim.Model
}

// Name returns the marketing name (CL_DEVICE_NAME).
func (d *Device) Name() string { return d.Spec.Name }

// ID returns the short identifier used across this repository.
func (d *Device) ID() string { return d.Spec.ID }

// Type maps the simulated device class onto the OpenCL device type.
func (d *Device) Type() DeviceType {
	switch d.Spec.Class {
	case sim.CPU:
		return DeviceCPU
	case sim.MIC:
		return DeviceAccelerator
	default:
		return DeviceGPU
	}
}

// Model exposes the device's performance model (used by the harness for
// counter and energy derivation).
func (d *Device) Model() *sim.Model { return d.model }

// Platform groups devices by vendor runtime, as the real installable client
// drivers do.
type Platform struct {
	Index   int
	Name    string
	Vendor  string
	Version string
	Devices []*Device
}

var (
	platformsOnce sync.Once
	platforms     []*Platform
)

// Platforms enumerates the simulated installable client drivers:
// platform 0 = Intel (CPUs and the Xeon Phi), 1 = Nvidia, 2 = AMD. OpenCL
// version 1.2 everywhere, matching §4.2. The returned slice is shared;
// device identities are stable across calls.
func Platforms() []*Platform {
	platformsOnce.Do(func() {
		plats := []*Platform{
			{Index: 0, Name: "Intel(R) OpenCL", Vendor: "Intel", Version: "OpenCL 1.2"},
			{Index: 1, Name: "NVIDIA CUDA", Vendor: "Nvidia", Version: "OpenCL 1.2 CUDA 8.0.61"},
			{Index: 2, Name: "AMD Accelerated Parallel Processing", Vendor: "AMD", Version: "OpenCL 1.2 AMD-APP (1912.5)"},
		}
		byVendor := map[string]*Platform{"Intel": plats[0], "Nvidia": plats[1], "AMD": plats[2]}
		for _, spec := range sim.Devices() {
			p := byVendor[spec.Vendor]
			d := &Device{Index: len(p.Devices), Spec: spec, model: sim.NewModel(spec)}
			p.Devices = append(p.Devices, d)
		}
		platforms = plats
	})
	return platforms
}

// Select resolves the paper's uniform device notation (§4.4.5):
// -p <platform> -d <device> -t <type>, e.g. "-p 1 -d 0 -t 0" for the
// Skylake CPU and "-p 1 -d 0 -t 1" for the GTX 1080 on the paper's system.
// Here platform indices follow the Platforms() ordering. The type filter is
// applied within the platform before indexing, as the OpenDwarfs device
// selection utility does.
func Select(platform, device int, devType DeviceType) (*Device, error) {
	plats := Platforms()
	if platform < 0 || platform >= len(plats) {
		return nil, fmt.Errorf("opencl: platform %d out of range [0,%d)", platform, len(plats))
	}
	var filtered []*Device
	for _, d := range plats[platform].Devices {
		if d.Type() == devType {
			filtered = append(filtered, d)
		}
	}
	if device < 0 || device >= len(filtered) {
		return nil, fmt.Errorf("opencl: platform %d has %d devices of type %v, index %d out of range",
			platform, len(filtered), devType, device)
	}
	return filtered[device], nil
}

// LookupDevice finds a device by its catalogue ID or full name.
func LookupDevice(id string) (*Device, error) {
	spec, err := sim.Lookup(id)
	if err != nil {
		return nil, err
	}
	for _, p := range Platforms() {
		for _, d := range p.Devices {
			if d.Spec.ID == spec.ID {
				return d, nil
			}
		}
	}
	return nil, fmt.Errorf("opencl: device %q not exposed by any platform", id)
}

// AllDevices returns every device across all platforms in Table 1 order.
func AllDevices() []*Device {
	var out []*Device
	for _, spec := range sim.Devices() {
		d, err := LookupDevice(spec.ID)
		if err != nil {
			panic(err) // registry and platforms must agree
		}
		out = append(out, d)
	}
	return out
}
