package opencl

import (
	"fmt"

	"opendwarfs/internal/sim"
)

// CommandKind distinguishes the three timing regions the paper instruments
// with LibSciBench (§2): kernel execution, memory transfer, and host setup
// (the latter is tracked by the harness, not the queue).
type CommandKind int

const (
	CommandKernel CommandKind = iota
	CommandWrite
)

// String names the command kind.
func (k CommandKind) String() string {
	switch k {
	case CommandKernel:
		return "kernel"
	case CommandWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Event carries the profiling information of one enqueued command
// (CL_QUEUE_PROFILING_ENABLE). Times are nanoseconds on the simulated device
// timeline of the owning queue.
type Event struct {
	Kind     CommandKind
	Name     string
	QueuedNs float64
	StartNs  float64
	EndNs    float64
	// Bytes is the transfer volume for write commands.
	Bytes int64
	// Profile is the workload characterisation for kernel commands.
	Profile *sim.KernelProfile
	// Breakdown explains the kernel-time estimate for kernel commands.
	Breakdown sim.Breakdown
}

// DurationNs is the command's device-side execution time.
func (e *Event) DurationNs() float64 { return e.EndNs - e.StartNs }

// CommandQueue is an in-order queue on one device. Functionally, commands
// execute synchronously on the host; temporally, each command advances the
// queue's simulated device clock by the modelled duration, and profiling
// events report those simulated timestamps.
type CommandQueue struct {
	device *Device
	nowNs  float64
	events []*Event
	// simulateOnly skips functional kernel execution (timing model only).
	// The harness uses it for grid configurations whose functional run is
	// prohibitively slow after correctness has been verified at smaller
	// scales; see DESIGN.md §2.
	simulateOnly bool
}

// NewQueue creates a profiling-enabled in-order command queue.
func NewQueue(ctx *Context, device *Device) (*CommandQueue, error) {
	if ctx == nil || device == nil {
		return nil, fmt.Errorf("opencl: queue requires a context and device")
	}
	found := false
	for _, d := range ctx.devices {
		if d == device {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("opencl: device %s not in context (CL_INVALID_DEVICE)", device.ID())
	}
	return &CommandQueue{device: device}, nil
}

// SetSimulateOnly toggles functional kernel execution.
func (q *CommandQueue) SetSimulateOnly(v bool) { q.simulateOnly = v }

// SimulateOnly reports whether functional execution is disabled.
func (q *CommandQueue) SimulateOnly() bool { return q.simulateOnly }

// NowNs returns the simulated device clock.
func (q *CommandQueue) NowNs() float64 { return q.nowNs }

// Events returns all profiling events recorded since the last Drain.
func (q *CommandQueue) Events() []*Event { return q.events }

// DrainEvents returns and clears the recorded events.
func (q *CommandQueue) DrainEvents() []*Event {
	ev := q.events
	q.events = nil
	return ev
}

// ResetTimeline zeroes the simulated clock (events are kept).
func (q *CommandQueue) ResetTimeline() { q.nowNs = 0 }

// EnqueueWrite transfers a buffer host→device.
func (q *CommandQueue) EnqueueWrite(b *Buffer) *Event {
	ev := &Event{
		Kind:     CommandWrite,
		Name:     b.name,
		QueuedNs: q.nowNs,
		StartNs:  q.nowNs,
		EndNs:    q.nowNs + q.device.model.TransferTime(b.bytes),
		Bytes:    b.bytes,
	}
	q.nowNs = ev.EndNs
	q.events = append(q.events, ev)
	return ev
}

// EnqueueNDRange launches a kernel over the index space. The kernel function
// runs functionally on the host (unless the queue is in simulate-only mode),
// while the event's timestamps come from the device performance model.
func (q *CommandQueue) EnqueueNDRange(k *Kernel, ndr NDRange) (*Event, error) {
	if err := ndr.validate(); err != nil {
		return nil, fmt.Errorf("kernel %q: %w", k.Name, err)
	}
	if k.Profile == nil {
		return nil, fmt.Errorf("opencl: kernel %q has no workload profile", k.Name)
	}
	prof := k.Profile(ndr)
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if !q.simulateOnly {
		if err := k.execute(ndr); err != nil {
			return nil, err
		}
	}
	bd := q.device.model.KernelTime(prof)
	ev := &Event{
		Kind:      CommandKernel,
		Name:      k.Name,
		QueuedNs:  q.nowNs,
		StartNs:   q.nowNs + bd.LaunchNs,
		EndNs:     q.nowNs + bd.TotalNs,
		Profile:   prof,
		Breakdown: bd,
	}
	q.nowNs = ev.EndNs
	q.events = append(q.events, ev)
	return ev, nil
}
