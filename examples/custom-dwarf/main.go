// Custom dwarf: the suite's extension point. §2 of the paper aims "to
// achieve a full representation of each dwarf, both by integrating other
// benchmark suites and adding custom kernels"; this example adds a Graph
// Traversal benchmark — a dwarf the published suite does not yet cover — as
// an out-of-tree type implementing dwarfs.Benchmark, and runs it through the
// exact harness the built-ins use (≥2 s loops, 50 samples, verification
// against a serial BFS).
//
//	go run ./examples/custom-dwarf
package main

import (
	"context"

	"fmt"
	"log"
	"math/rand"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// bfs is a level-synchronous breadth-first search over a random graph in
// CSR adjacency form: one kernel launch per frontier level, one work-item
// per vertex — the classic OpenCL formulation (Rodinia's bfs).
type bfs struct{}

var verticesBySize = map[string]int{
	dwarfs.SizeTiny:   1024,
	dwarfs.SizeSmall:  8192,
	dwarfs.SizeMedium: 131072,
	dwarfs.SizeLarge:  1 << 20,
}

func (bfs) Name() string                   { return "bfs" }
func (bfs) Dwarf() string                  { return "Graph Traversal" }
func (bfs) Sizes() []string                { return dwarfs.Sizes() }
func (bfs) ScaleParameter(s string) string { return fmt.Sprintf("%d", verticesBySize[s]) }
func (bfs) ArgString(s string) string      { return fmt.Sprintf("-v %d -d 8", verticesBySize[s]) }

func (bfs) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := verticesBySize[size]
	if !ok {
		return nil, fmt.Errorf("bfs: unsupported size %q", size)
	}
	return newBFSInstance(n, 8, seed), nil
}

type bfsInstance struct {
	n      int
	rowPtr []int32
	edges  []int32

	dist     []int32
	frontier []int32 // 1 if vertex is in the current frontier
	next     []int32
	changed  int32 // host-observed; device writes any nonzero

	bufs   []*opencl.Buffer
	kernel *opencl.Kernel
	ran    bool
}

// newBFSInstance generates a random graph with average degree deg.
func newBFSInstance(n, deg int, seed int64) *bfsInstance {
	rng := rand.New(rand.NewSource(seed))
	in := &bfsInstance{n: n}
	in.rowPtr = make([]int32, n+1)
	for v := 0; v < n; v++ {
		d := rng.Intn(2*deg + 1)
		for e := 0; e < d; e++ {
			in.edges = append(in.edges, int32(rng.Intn(n)))
		}
		in.rowPtr[v+1] = int32(len(in.edges))
	}
	return in
}

func (in *bfsInstance) FootprintBytes() int64 {
	return int64(len(in.rowPtr))*4 + int64(len(in.edges))*4 + 3*int64(in.n)*4
}

func (in *bfsInstance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	allocI := func(name string, n int) []int32 {
		b := opencl.NewBuffer[int32](ctx, name, n)
		in.bufs = append(in.bufs, b)
		q.EnqueueWrite(b)
		return opencl.Data[int32](b)
	}
	rp := allocI("rowptr", len(in.rowPtr))
	copy(rp, in.rowPtr)
	in.rowPtr = rp
	ed := allocI("edges", len(in.edges))
	copy(ed, in.edges)
	in.edges = ed
	in.dist = allocI("dist", in.n)
	in.frontier = allocI("frontier", in.n)
	in.next = allocI("next", in.n)

	in.kernel = &opencl.Kernel{
		Name: "bfs_level",
		Fn: func(wi *opencl.Item) {
			v := wi.GlobalID(0)
			if in.frontier[v] == 0 {
				return
			}
			d := in.dist[v]
			for e := in.rowPtr[v]; e < in.rowPtr[v+1]; e++ {
				u := in.edges[e]
				if in.dist[u] == -1 {
					// Benign race as in the original kernels: all writers
					// store the same level value.
					in.dist[u] = d + 1
					in.next[u] = 1
					in.changed = 1
				}
			}
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile {
			deg := float64(len(in.edges)) / float64(in.n)
			return &sim.KernelProfile{
				Name: "bfs_level", WorkItems: ndr.TotalItems(),
				IntOpsPerItem:    4 * deg,
				LoadBytesPerItem: 8 + 8*deg, StoreBytesPerItem: deg,
				WorkingSetBytes: in.FootprintBytes(),
				Pattern:         cache.Random, // neighbour gathers
				TemporalReuse:   0.2,
				BranchesPerItem: 1 + deg, Divergence: 0.6,
				Vectorizable: true,
			}
		},
	}
	return nil
}

func (in *bfsInstance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("bfs: Iterate before Setup")
	}
	if !q.SimulateOnly() {
		for i := range in.dist {
			in.dist[i] = -1
			in.frontier[i] = 0
			in.next[i] = 0
		}
		in.dist[0] = 0
		in.frontier[0] = 1
	}
	local := 64
	for in.n%local != 0 {
		local /= 2
	}
	// Level-synchronous sweep: functional runs go until the frontier
	// drains; simulate-only mode runs a representative 8 levels (random
	// graphs at degree 8 finish in ~log n levels).
	levels := 8
	if !q.SimulateOnly() {
		levels = in.n
	}
	for level := 0; level < levels; level++ {
		if !q.SimulateOnly() {
			in.changed = 0
		}
		if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(in.n, local)); err != nil {
			return err
		}
		if !q.SimulateOnly() {
			copy(in.frontier, in.next)
			for i := range in.next {
				in.next[i] = 0
			}
			if in.changed == 0 {
				break
			}
		}
	}
	in.ran = true
	return nil
}

func (in *bfsInstance) Verify() error {
	if !in.ran {
		return fmt.Errorf("bfs: Verify before Iterate")
	}
	// Serial BFS reference.
	want := make([]int32, in.n)
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for e := in.rowPtr[v]; e < in.rowPtr[v+1]; e++ {
			u := in.edges[e]
			if want[u] == -1 {
				want[u] = want[v] + 1
				queue = append(queue, u)
			}
		}
	}
	for v := range want {
		if want[v] != in.dist[v] {
			return fmt.Errorf("bfs: vertex %d at distance %d, reference %d", v, in.dist[v], want[v])
		}
	}
	return nil
}

func main() {
	fmt.Println("Custom dwarf: Graph Traversal (BFS) plugged into the suite harness")
	fmt.Println()

	var b bfs
	opt := harness.DefaultOptions()
	opt.Samples = 20
	for _, deviceID := range []string{"i7-6700k", "gtx1080", "k20m"} {
		dev, err := opencl.LookupDevice(deviceID)
		if err != nil {
			log.Fatal(err)
		}
		m, err := harness.Run(context.Background(), b, dwarfs.SizeSmall, dev, opt)
		if err != nil {
			log.Fatal(err)
		}
		tag := "simulated"
		if m.Verified {
			tag = "verified vs serial BFS"
		}
		fmt.Printf("%-10s bfs/small kernel median %8.4f ms  energy %7.4f J  (%s)\n",
			deviceID, m.Kernel.Median/1e6, m.Energy.Median, tag)
	}
	fmt.Println()
	fmt.Println("Everything — the 2 s loop, 50-sample statistics, energy metering,")
	fmt.Println("counters and verification — came from the suite harness; the new")
	fmt.Println("benchmark only provided kernels, a profile and a serial reference.")
}
