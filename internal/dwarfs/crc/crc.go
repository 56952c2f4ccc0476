// Package crc implements the Combinational Logic dwarf: a table-driven
// CRC-32 (IEEE/Ethernet polynomial) over a generated message. The message is
// split into pages, one work-item computes the CRC of each page, and the
// host combines the partial CRCs with the GF(2) matrix method — the
// structure of the OpenDwarfs crc benchmark.
//
// Table-driven CRC is byte-serial integer code that neither vectorises nor
// exploits floating-point units, which is why Fig. 1 of the paper shows it
// as the one benchmark that runs fastest on CPUs.
package crc

import (
	"fmt"
	"hash/crc32"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// PageBytes is the per-work-item chunk size.
const PageBytes = 1024

// bytesBySize is the Table 2 workload scale parameter Φ (message bytes).
var bytesBySize = map[string]int{
	dwarfs.SizeTiny:   2000,
	dwarfs.SizeSmall:  16000,
	dwarfs.SizeMedium: 524000,
	dwarfs.SizeLarge:  4194304,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "crc" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Combinational Logic" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string { return fmt.Sprintf("%d", bytesBySize[size]) }

// ArgString implements dwarfs.Benchmark (Table 3: crc -i 1000 Φ.txt).
func (*Benchmark) ArgString(size string) string {
	return fmt.Sprintf("-i 1000 %d.txt", bytesBySize[size])
}

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := bytesBySize[size]
	if !ok {
		return nil, fmt.Errorf("crc: unsupported size %q", size)
	}
	return NewInstance(n, seed), nil
}

// Instance is one configured crc run.
type Instance struct {
	n    int
	seed int64

	msg   []byte
	pages []uint32 // per-page CRCs written by the kernel

	msgBuf, pageBuf *opencl.Buffer
	kernel          *opencl.Kernel
	result          uint32
	ran             bool
}

// NewInstance builds an instance over a generated message of n bytes.
func NewInstance(n int, seed int64) *Instance {
	return &Instance{n: n, seed: seed}
}

// numPages returns the page count of the message.
func (in *Instance) numPages() int { return (in.n + PageBytes - 1) / PageBytes }

// FootprintBytes implements dwarfs.Instance: message + per-page CRC outputs.
func (in *Instance) FootprintBytes() int64 {
	return int64(in.n) + int64(in.numPages())*4
}

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	in.msgBuf = opencl.NewBuffer[uint8](ctx, "message", in.n)
	in.pageBuf = opencl.NewBuffer[uint32](ctx, "page_crcs", in.numPages())
	in.msg, in.pages = opencl.Data[uint8](in.msgBuf), opencl.Data[uint32](in.pageBuf)
	copy(in.msg, data.RandomBytes(in.n, in.seed))

	msg, pages, n := in.msg, in.pages, in.n
	in.kernel = &opencl.Kernel{
		Name: "crc32_pages",
		Fn: func(wi *opencl.Item) {
			p := wi.GlobalID(0)
			lo := p * PageBytes
			hi := lo + PageBytes
			if hi > n {
				hi = n
			}
			pages[p] = crc32.ChecksumIEEE(msg[lo:hi])
		},
		Profile: in.profile,
	}
	q.EnqueueWrite(in.msgBuf)
	return nil
}

// profile characterises the page kernel: ~7 integer operations per byte
// (shift, xor, mask, table index arithmetic, load), not vectorizable,
// streaming over the message with the 1 KiB lookup table resident.
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name:              "crc32_pages",
		WorkItems:         ndr.TotalItems(),
		IntOpsPerItem:     7 * PageBytes,
		LoadBytesPerItem:  PageBytes + 4*PageBytes, // message + table lookups
		StoreBytesPerItem: 4,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Streaming,
		TemporalReuse:     0.8, // the 1 KiB table serves 4 of every 5 loads
		BranchesPerItem:   PageBytes,
		Vectorizable:      false,
	}
}

// Iterate implements dwarfs.Instance: one kernel pass plus the host-side
// GF(2) combination of page CRCs.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("crc: Iterate before Setup")
	}
	np := in.numPages()
	local := 16
	for np%local != 0 {
		local /= 2
	}
	if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(np, local)); err != nil {
		return err
	}
	in.ran = true
	if q.SimulateOnly() {
		return nil
	}
	// Combine per-page CRCs left to right.
	crc := in.pages[0]
	for p := 1; p < np; p++ {
		lo := p * PageBytes
		hi := lo + PageBytes
		if hi > in.n {
			hi = in.n
		}
		crc = Combine(crc, in.pages[p], int64(hi-lo))
	}
	in.result = crc
	return nil
}

// Result returns the combined CRC of the whole message.
func (in *Instance) Result() uint32 { return in.result }

// Verify implements dwarfs.Instance against the standard library.
func (in *Instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("crc: Verify before Iterate")
	}
	if want := crc32.ChecksumIEEE(in.msg); in.result != want {
		return fmt.Errorf("crc: combined CRC %08x, reference %08x", in.result, want)
	}
	return nil
}

// Combine merges two CRC-32 values: Combine(crcA, crcB, lenB) is the CRC of
// the concatenation A‖B given the CRCs of the halves (zlib's crc32_combine
// algorithm: advance crcA through lenB zero bytes using GF(2) matrix
// squaring, then xor).
func Combine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	var even, odd gf2Matrix

	// odd = operator for one zero bit.
	odd[0] = 0xedb88320 // reflected IEEE polynomial
	row := uint32(1)
	for i := 1; i < 32; i++ {
		odd[i] = row
		row <<= 1
	}
	even.square(&odd) // two bits
	odd.square(&even) // four bits

	// Apply len2 zero bytes, squaring powers as we consume bits.
	for {
		even.square(&odd)
		if lenB&1 != 0 {
			crcA = even.times(crcA)
		}
		lenB >>= 1
		if lenB == 0 {
			break
		}
		odd.square(&even)
		if lenB&1 != 0 {
			crcA = odd.times(crcA)
		}
		lenB >>= 1
		if lenB == 0 {
			break
		}
	}
	return crcA ^ crcB
}

// gf2Matrix is a 32×32 bit matrix over GF(2), one column per word.
type gf2Matrix [32]uint32

// times multiplies the matrix by a vector.
func (m *gf2Matrix) times(vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= m[i]
		}
		vec >>= 1
	}
	return sum
}

// square sets m = s·s.
func (m *gf2Matrix) square(s *gf2Matrix) {
	for i := 0; i < 32; i++ {
		m[i] = s.times(s[i])
	}
}
