package opencl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Context owns device memory objects, as in OpenCL. Its accounting of total
// device-side bytes implements the paper's memory-footprint verification:
// "the memory footprint was verified for each benchmark by printing the sum
// of the size of all memory allocated on the device" (§4.4).
type Context struct {
	devices []*Device
	bytes   atomic.Int64
}

// NewContext creates a context spanning the given devices (at least one).
func NewContext(devices ...*Device) (*Context, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("opencl: context requires at least one device")
	}
	return &Context{devices: devices}, nil
}

// DeviceFootprintBytes is the sum of all buffer sizes — Eq. (1) of the
// paper generalised to any benchmark.
func (c *Context) DeviceFootprintBytes() int64 { return c.bytes.Load() }

// Buffer is a device memory object. NewBuffer declares it: its name, size
// and footprint accounting are final at once, but the host slice backing it
// is allocated by the first Data call. A buffer no executing queue or host
// code ever touches — the simulate-only configurations of DESIGN.md §2 —
// costs no host memory.
type Buffer struct {
	name  string
	bytes int64

	once  sync.Once
	alloc func() any // makes the backing slice; run once, by Data
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
		name:  name,
		bytes: int64(n) * int64(sizeOf(elem)),
		alloc: func() any { return make([]T, n) },
	}
	ctx.bytes.Add(b.bytes)
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
	b.once.Do(func() { b.data = b.alloc() })
	s, ok := b.data.([]T)
	if !ok {
		panic(fmt.Sprintf("opencl: buffer %q holds %T, requested %T", b.name, b.data, s))
	}
	return s
}
