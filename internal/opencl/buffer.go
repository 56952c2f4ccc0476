package opencl

import (
	"fmt"
	"sync"
)

// Context owns device memory objects, as in OpenCL. Its accounting of total
// device-side bytes implements the paper's memory-footprint verification:
// "the memory footprint was verified for each benchmark by printing the sum
// of the size of all memory allocated on the device" (§4.4).
type Context struct {
	mu      sync.Mutex
	devices []*Device
	buffers map[*Buffer]struct{}
	bytes   int64
}

// NewContext creates a context spanning the given devices (at least one).
func NewContext(devices ...*Device) (*Context, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("opencl: context requires at least one device")
	}
	return &Context{devices: devices, buffers: make(map[*Buffer]struct{})}, nil
}

// Devices returns the devices in the context.
func (c *Context) Devices() []*Device { return c.devices }

// DeviceFootprintBytes is the sum of all live buffer sizes — Eq. (1) of the
// paper generalised to any benchmark.
func (c *Context) DeviceFootprintBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Buffer is a device memory object. NewBuffer declares it: its name, size
// and footprint accounting are final at once, but the host slice backing it
// is allocated by the first Data call, or by a copy or fill on an executing
// queue. A buffer no executing queue or host code ever touches — the
// simulate-only configurations of DESIGN.md §2 — costs no host memory.
// Release drops the context accounting.
type Buffer struct {
	ctx   *Context
	name  string
	bytes int64
	freed bool

	once  sync.Once
	alloc func() any // makes the backing slice; run once, by backing
	data  any
}

// NewBuffer declares an n-element buffer of element type T in the context.
// The backing slice is allocated on first use; kernels and host code reach
// it through Data.
func NewBuffer[T any](ctx *Context, name string, n int) *Buffer {
	if n < 0 {
		panic(fmt.Sprintf("opencl: negative buffer length %d for %q", n, name))
	}
	var elem T
	b := &Buffer{
		ctx:   ctx,
		name:  name,
		bytes: int64(n) * int64(sizeOf(elem)),
		alloc: func() any { return make([]T, n) },
	}
	ctx.mu.Lock()
	ctx.buffers[b] = struct{}{}
	ctx.bytes += b.bytes
	ctx.mu.Unlock()
	return b
}

// sizeOf reports the in-memory size of the element, restricted to the types
// the benchmarks use. Using a switch rather than unsafe.Sizeof keeps the
// runtime portable and explicit.
func sizeOf(v any) int {
	switch v.(type) {
	case float32, int32, uint32:
		return 4
	case float64, int64, uint64, int, complex64:
		return 8
	case complex128:
		return 16
	case uint8, int8, bool:
		return 1
	case uint16, int16:
		return 2
	default:
		panic(fmt.Sprintf("opencl: unsupported buffer element type %T", v))
	}
}

// Name returns the buffer's label.
func (b *Buffer) Name() string { return b.name }

// Bytes returns the buffer's size in bytes.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Data returns the backing slice as a []T, allocating it on the first call.
// Every call, concurrent first calls included, returns the same slice. It
// panics if T does not match the declared element type, mirroring the type
// confusion a real OpenCL program would hit with mismatched kernel
// arguments.
func Data[T any](b *Buffer) []T {
	s, ok := b.backing().([]T)
	if !ok {
		panic(fmt.Sprintf("opencl: buffer %q holds %T, requested %T", b.name, b.data, s))
	}
	return s
}

// backing returns the backing slice, allocating it on first use.
func (b *Buffer) backing() any {
	b.once.Do(func() { b.data = b.alloc() })
	return b.data
}

// copyBufferData copies the backing slice of src into dst, allocating
// either backing if it was never touched; the element types must match
// (CL_INVALID_VALUE otherwise).
func copyBufferData(dst, src *Buffer) error {
	switch s := src.backing().(type) {
	case []float32:
		return copyInto(dst, src, s)
	case []float64:
		return copyInto(dst, src, s)
	case []int32:
		return copyInto(dst, src, s)
	case []uint32:
		return copyInto(dst, src, s)
	case []uint64:
		return copyInto(dst, src, s)
	case []uint8:
		return copyInto(dst, src, s)
	case []complex64:
		return copyInto(dst, src, s)
	default:
		return fmt.Errorf("opencl: copy unsupported for buffer type %T", src.data)
	}
}

// copyInto copies s, the backing of src, into dst's backing.
func copyInto[T any](dst, src *Buffer, s []T) error {
	d, ok := dst.backing().([]T)
	if !ok {
		return typeMismatch(dst, src)
	}
	copy(d, s)
	return nil
}

func typeMismatch(dst, src *Buffer) error {
	return fmt.Errorf("opencl: copy between %T (%q) and %T (%q)", src.data, src.name, dst.data, dst.name)
}

// zeroBufferData clears the backing slice of a buffer, allocating it if it
// was never touched.
func zeroBufferData(b *Buffer) {
	switch s := b.backing().(type) {
	case []float32:
		clear(s)
	case []float64:
		clear(s)
	case []int32:
		clear(s)
	case []uint32:
		clear(s)
	case []uint64:
		clear(s)
	case []uint8:
		clear(s)
	case []complex64:
		clear(s)
	}
}

// Release returns the buffer's bytes to the context accounting. Releasing
// twice is an error, as in OpenCL (clReleaseMemObject underflow).
func (b *Buffer) Release() error {
	b.ctx.mu.Lock()
	defer b.ctx.mu.Unlock()
	if b.freed {
		return fmt.Errorf("opencl: buffer %q released twice", b.name)
	}
	b.freed = true
	delete(b.ctx.buffers, b)
	b.ctx.bytes -= b.bytes
	return nil
}
