package opencl

import (
	"sync"
	"testing"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/sim"
)

func TestPlatformsComposition(t *testing.T) {
	plats := Platforms()
	if len(plats) != 3 {
		t.Fatalf("%d platforms, want 3 (Intel, Nvidia, AMD)", len(plats))
	}
	if n := len(plats[0].Devices); n != 4 {
		t.Errorf("Intel platform has %d devices, want 4 (3 CPUs + KNL)", n)
	}
	if n := len(plats[1].Devices); n != 5 {
		t.Errorf("Nvidia platform has %d devices, want 5", n)
	}
	if n := len(plats[2].Devices); n != 6 {
		t.Errorf("AMD platform has %d devices, want 6", n)
	}
	total := 0
	for _, p := range plats {
		total += len(p.Devices)
		for _, d := range p.Devices {
			if d.Spec.Vendor != p.Vendor {
				t.Errorf("device %s on platform %s", d.ID(), p.Vendor)
			}
		}
	}
	if total != 15 {
		t.Fatalf("%d devices total, want 15", total)
	}
}

func TestPlatformsStableIdentity(t *testing.T) {
	a := Platforms()[1].Devices[0]
	b := Platforms()[1].Devices[0]
	if a != b {
		t.Fatal("Platforms() returns fresh device objects; identity must be stable")
	}
}

func TestDeviceTypes(t *testing.T) {
	cpu, err := LookupDevice("i7-6700k")
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Type() != DeviceCPU {
		t.Errorf("i7 type %v", cpu.Type())
	}
	gpu, _ := LookupDevice("gtx1080")
	if gpu.Type() != DeviceGPU {
		t.Errorf("gtx1080 type %v", gpu.Type())
	}
	mic, _ := LookupDevice("knl-7210")
	if mic.Type() != DeviceAccelerator {
		t.Errorf("KNL type %v", mic.Type())
	}
	if DeviceCPU.String() != "CL_DEVICE_TYPE_CPU" || DeviceType(42).String() != "CL_DEVICE_TYPE_UNKNOWN" {
		t.Error("DeviceType.String broken")
	}
}

func TestSelect(t *testing.T) {
	// Paper §4.4.5 notation: platform + device index + type filter.
	d, err := Select(0, 0, DeviceCPU)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.Class != sim.CPU {
		t.Fatalf("selected %s, want a CPU", d.ID())
	}
	g, err := Select(1, 1, DeviceGPU)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != "gtx1080" {
		t.Fatalf("Nvidia device 1 = %s, want gtx1080", g.ID())
	}
	if _, err := Select(7, 0, DeviceCPU); err == nil {
		t.Error("out-of-range platform accepted")
	}
	if _, err := Select(1, 0, DeviceCPU); err == nil {
		t.Error("Nvidia platform has no CPU; selection should fail")
	}
	if _, err := Select(0, 9, DeviceCPU); err == nil {
		t.Error("out-of-range device accepted")
	}
}

func TestLookupDeviceUnknown(t *testing.T) {
	if _, err := LookupDevice("fpga-9000"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestAllDevicesOrder(t *testing.T) {
	devs := AllDevices()
	if len(devs) != 15 {
		t.Fatalf("%d devices", len(devs))
	}
	specs := sim.Devices()
	for i := range devs {
		if devs[i].ID() != specs[i].ID {
			t.Fatalf("device %d = %s, want %s (Table 1 order)", i, devs[i].ID(), specs[i].ID)
		}
	}
}

func newCPUQueue(t *testing.T) (*Context, *CommandQueue) {
	t.Helper()
	dev, err := LookupDevice("i7-6700k")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, q
}

func TestContextRequiresDevice(t *testing.T) {
	if _, err := NewContext(); err == nil {
		t.Fatal("empty context accepted")
	}
}

func TestQueueDeviceMustBeInContext(t *testing.T) {
	a, _ := LookupDevice("i7-6700k")
	b, _ := LookupDevice("gtx1080")
	ctx, _ := NewContext(a)
	if _, err := NewQueue(ctx, b); err == nil {
		t.Fatal("queue on out-of-context device accepted")
	}
	if _, err := NewQueue(nil, a); err == nil {
		t.Fatal("nil context accepted")
	}
}

func TestBufferFootprintAccounting(t *testing.T) {
	ctx, _ := newCPUQueue(t)
	b1 := NewBuffer[float32](ctx, "feature", 256*30)
	b2 := NewBuffer[int32](ctx, "membership", 256)
	// Paper §4.4.1 arithmetic: footprint is the sum of allocation sizes.
	want := int64(256*30*4 + 256*4)
	if got := ctx.DeviceFootprintBytes(); got != want || got != b1.Bytes()+b2.Bytes() {
		t.Fatalf("footprint %d, want %d", got, want)
	}
}

func TestBufferTypedAccess(t *testing.T) {
	ctx, _ := newCPUQueue(t)
	b := NewBuffer[float32](ctx, "x", 8)
	s := Data[float32](b)
	s[3] = 42
	if got := Data[float32](b)[3]; got != 42 {
		t.Fatalf("Data view disagrees with allocation slice: %f", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type-confused Data access did not panic")
		}
	}()
	_ = Data[int32](b)
}

// A declared buffer counts in the footprint at once but has no backing
// until its first Data call; every call after that, and every one of
// several concurrent first calls, returns the same slice.
func TestBufferAllocatedOnFirstUse(t *testing.T) {
	ctx, _ := newCPUQueue(t)
	const n = 1 << 10
	b := NewBuffer[float32](ctx, "x", n)
	if got := ctx.DeviceFootprintBytes(); got != 4*n {
		t.Fatalf("footprint %d before first use, want %d", got, 4*n)
	}
	if b.data != nil {
		t.Fatal("backing allocated at declaration")
	}
	const callers = 8
	got := make([][]float32, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = Data[float32](b)
		}()
	}
	close(start)
	wg.Wait()
	got = append(got, Data[float32](b))
	for i, s := range got {
		if len(s) != n || &s[0] != &got[0][0] {
			t.Fatalf("call %d returned a different backing (len %d)", i, len(s))
		}
	}
	if got := ctx.DeviceFootprintBytes(); got != 4*n {
		t.Fatalf("footprint %d after first use, want %d", got, 4*n)
	}
}

func TestBufferElementSizes(t *testing.T) {
	ctx, _ := newCPUQueue(t)
	cases := []struct {
		bytes int64
		alloc func() *Buffer
	}{
		{4, func() *Buffer { return NewBuffer[float32](ctx, "a", 1) }},
		{8, func() *Buffer { return NewBuffer[float64](ctx, "b", 1) }},
		{8, func() *Buffer { return NewBuffer[complex64](ctx, "c", 1) }},
		{16, func() *Buffer { return NewBuffer[complex128](ctx, "d", 1) }},
		{1, func() *Buffer { return NewBuffer[uint8](ctx, "e", 1) }},
		{2, func() *Buffer { return NewBuffer[int16](ctx, "f", 1) }},
	}
	for i, c := range cases {
		if got := c.alloc().Bytes(); got != c.bytes {
			t.Errorf("case %d: %d bytes, want %d", i, got, c.bytes)
		}
	}
}

func simpleProfile(n NDRange) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name: "test", WorkItems: n.TotalItems(),
		FlopsPerItem: 1, LoadBytesPerItem: 8, StoreBytesPerItem: 4,
		WorkingSetBytes: n.TotalItems() * 12, Pattern: cache.Streaming,
		Vectorizable: true,
	}
}

func TestVectorAddKernel(t *testing.T) {
	ctx, q := newCPUQueue(t)
	const n = 1 << 14
	a := Data[float32](NewBuffer[float32](ctx, "a", n))
	b := Data[float32](NewBuffer[float32](ctx, "b", n))
	c := Data[float32](NewBuffer[float32](ctx, "c", n))
	for i := range a {
		a[i] = float32(i)
		b[i] = 2 * float32(i)
	}
	k := &Kernel{
		Name:    "vadd",
		Fn:      func(wi *Item) { i := wi.GlobalID(0); c[i] = a[i] + b[i] },
		Profile: simpleProfile,
	}
	ev, err := q.EnqueueNDRange(k, NDR1(n, 64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i] != 3*float32(i) {
			t.Fatalf("c[%d] = %f, want %f", i, c[i], 3*float32(i))
		}
	}
	if ev.DurationNs() <= 0 {
		t.Fatal("kernel event has no duration")
	}
	if ev.Kind != CommandKernel || ev.Name != "vadd" {
		t.Fatalf("bad event %+v", ev)
	}
}

// A launch allocates as much over 4096 work-groups as over one: no
// work-group allocates. (AllocsPerRun runs at GOMAXPROCS 1, so
// both launches have one worker.)
func TestBarrierFreeGroupsAllocateNothing(t *testing.T) {
	ctx, q := newCPUQueue(t)
	const local, most = 16, 4096
	out := Data[int32](NewBuffer[int32](ctx, "out", most*local))
	k := &Kernel{
		Name:    "mark",
		Fn:      func(wi *Item) { out[wi.GlobalID(0)]++ },
		Profile: simpleProfile,
	}
	allocs := func(groups int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := q.EnqueueNDRange(k, NDR1(groups*local, local)); err != nil {
				t.Fatal(err)
			}
			q.DrainEvents()
		})
	}
	if one, many := allocs(1), allocs(most); one != many {
		t.Fatalf("a launch of 1 group allocates %v times, of %d groups %v times", one, most, many)
	}
}

// TestKernel2DCoversIndexSpace: every global ID of a launch runs exactly
// once, whatever the range's shape — execute's decomposition of a group
// index into its x, y and z coordinates. The 1-D case has 7 groups, the
// 2-D case 3 × 4 and the 3-D case 2 × 3 × 5.
func TestKernel2DCoversIndexSpace(t *testing.T) {
	ctx, q := newCPUQueue(t)
	for _, ndr := range []NDRange{
		NDR1(7*16, 16),
		NDR2(48, 32, 16, 8),
		{Dims: 3, Global: [3]int{8, 12, 10}, Local: [3]int{4, 4, 2}},
	} {
		gx, gy := ndr.Global[0], ndr.Global[1]
		hits := Data[int32](NewBuffer[int32](ctx, "hits", int(ndr.TotalItems())))
		k := &Kernel{
			Name: "mark",
			Fn: func(wi *Item) {
				hits[(wi.GlobalID(2)*gy+wi.GlobalID(1))*gx+wi.GlobalID(0)]++
			},
			Profile: simpleProfile,
		}
		if _, err := q.EnqueueNDRange(k, ndr); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%d-D range %v: item %d executed %d times, want exactly once", ndr.Dims, ndr.Global, i, h)
			}
		}
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	_, q := newCPUQueue(t)
	k := &Kernel{
		Name:    "panic",
		Fn:      func(wi *Item) { panic("kaboom") },
		Profile: simpleProfile,
	}
	if _, err := q.EnqueueNDRange(k, NDR1(128, 64)); err == nil {
		t.Fatal("kernel panic not converted to error")
	}
}

func TestNDRangeValidation(t *testing.T) {
	_, q := newCPUQueue(t)
	k := &Kernel{Name: "k", Fn: func(wi *Item) {}, Profile: simpleProfile}
	bad := []NDRange{
		{Dims: 0},
		{Dims: 1, Global: [3]int{100, 1, 1}, Local: [3]int{64, 1, 1}}, // not divisible
		{Dims: 1, Global: [3]int{0, 1, 1}, Local: [3]int{1, 1, 1}},
		{Dims: 1, Global: [3]int{64, 2, 1}, Local: [3]int{64, 1, 1}}, // unused dim != 1
		{Dims: 4},
	}
	for i, ndr := range bad {
		if _, err := q.EnqueueNDRange(k, ndr); err == nil {
			t.Errorf("bad NDRange %d accepted: %+v", i, ndr)
		}
	}
}

func TestMissingProfileRejected(t *testing.T) {
	_, q := newCPUQueue(t)
	k := &Kernel{Name: "noprof", Fn: func(wi *Item) {}}
	if _, err := q.EnqueueNDRange(k, NDR1(64, 64)); err == nil {
		t.Fatal("kernel without profile accepted")
	}
	k2 := &Kernel{Name: "nofn", Profile: simpleProfile}
	if _, err := q.EnqueueNDRange(k2, NDR1(64, 64)); err == nil {
		t.Fatal("kernel without function accepted")
	}
}

func TestSimulateOnlySkipsExecution(t *testing.T) {
	_, q := newCPUQueue(t)
	q.SetSimulateOnly(true)
	if !q.SimulateOnly() {
		t.Fatal("mode not set")
	}
	ran := false
	var mu sync.Mutex
	k := &Kernel{
		Name:    "skip",
		Fn:      func(wi *Item) { mu.Lock(); ran = true; mu.Unlock() },
		Profile: simpleProfile,
	}
	ev, err := q.EnqueueNDRange(k, NDR1(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("simulate-only queue executed the kernel")
	}
	if ev.DurationNs() <= 0 {
		t.Fatal("simulate-only event has no modelled duration")
	}
}

func TestQueueTimeline(t *testing.T) {
	ctx, q := newCPUQueue(t)
	b := NewBuffer[float32](ctx, "x", 1<<16)
	k := &Kernel{Name: "k", Fn: func(wi *Item) {}, Profile: simpleProfile}

	w := q.EnqueueWrite(b)
	ev1, _ := q.EnqueueNDRange(k, NDR1(1024, 64))
	ev2, _ := q.EnqueueNDRange(k, NDR1(1024, 64))
	r := q.EnqueueWrite(b)

	if w.StartNs != 0 {
		t.Fatal("first command should start at time zero")
	}
	if !(w.EndNs <= ev1.QueuedNs && ev1.EndNs <= ev2.QueuedNs && ev2.EndNs <= r.StartNs) {
		t.Fatal("in-order queue timestamps out of order")
	}
	if ev1.StartNs <= ev1.QueuedNs {
		t.Fatal("kernel start should include launch overhead after queue time")
	}
	if q.NowNs() != r.EndNs {
		t.Fatal("queue clock should equal last command end")
	}

	events := q.DrainEvents()
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	if len(q.Events()) != 0 {
		t.Fatal("drain did not clear events")
	}
	q.ResetTimeline()
	if q.NowNs() != 0 {
		t.Fatal("timeline not reset")
	}
}

func TestCommandKindString(t *testing.T) {
	for k, want := range map[CommandKind]string{CommandKernel: "kernel", CommandWrite: "write", CommandKind(2): "unknown"} {
		if k.String() != want {
			t.Errorf("%d -> %q want %q", k, k.String(), want)
		}
	}
}

func TestNDRangeHelpers(t *testing.T) {
	n := NDR2(64, 32, 16, 8)
	if n.TotalItems() != 64*32 {
		t.Fatalf("TotalItems %d", n.TotalItems())
	}
	g := n.NumGroups()
	if g[0] != 4 || g[1] != 4 {
		t.Fatalf("NumGroups %v", g)
	}
}
