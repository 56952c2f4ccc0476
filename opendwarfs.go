// Package opendwarfs is the public facade of the Extended OpenDwarfs suite —
// a Go reproduction of "Dwarfs on Accelerators: Enhancing OpenCL Benchmarking
// for Heterogeneous Computing Architectures" (Johnston & Milthorpe,
// ICPP 2018). It exposes the benchmark registry, the simulated device
// catalogue, and the measurement harness with the paper's methodology
// defaults (50 samples, ≥2 s loops, energy + counters).
//
// Quick start:
//
//	sess, err := opendwarfs.NewSession()
//	res, err := sess.Run(ctx, "kmeans", "tiny", "i7-6700k")
//	fmt.Println(res.Kernel.Median)
//
// Sessions are context-aware: cancelling the context aborts cleanly, and a
// grid run stopped by cancellation or a cell error returns a valid partial
// Grid whose completed cells are already persisted when a store is
// attached (NewSession(WithStore(dir))). Session.Stream runs the same grid
// and reports it as a typed per-cell event stream.
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package opendwarfs

import (
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/suite"
)

// Options re-exports the harness measurement options.
type Options = harness.Options

// Result re-exports one benchmark × size × device measurement.
type Result = harness.Measurement

// Grid re-exports a measurement collection.
type Grid = harness.Grid

// Device re-exports the OpenCL-style device handle.
type Device = opencl.Device

// DeviceSpec re-exports the simulated hardware description (Table 1).
type DeviceSpec = sim.DeviceSpec

// Registry re-exports the benchmark registry.
type Registry = dwarfs.Registry

// DefaultOptions returns the paper's measurement methodology: 50 samples
// per group, two-second loops, functional verification within budget.
func DefaultOptions() Options { return harness.DefaultOptions() }

// Suite returns the 11-benchmark registry in Table 2 order.
func Suite() *Registry { return suite.New() }

// Devices returns the 15 simulated platforms in Table 1 order.
func Devices() []*Device { return opencl.AllDevices() }

// LookupDevice resolves a device by catalogue ID ("i7-6700k") or marketing
// name ("GTX 1080").
func LookupDevice(id string) (*Device, error) { return opencl.LookupDevice(id) }

// Sizes returns the four canonical problem sizes of §4.4.
func Sizes() []string { return dwarfs.Sizes() }
