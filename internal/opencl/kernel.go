package opencl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"opendwarfs/internal/sim"
)

// NDRange is the index space of a kernel launch: up to three dimensions of
// global work, partitioned into work-groups of the given local size. As in
// OpenCL 1.x, each global size must be a multiple of the corresponding local
// size.
type NDRange struct {
	Dims   int
	Global [3]int
	Local  [3]int
}

// NDR1 builds a 1-D range.
func NDR1(global, local int) NDRange {
	return NDRange{Dims: 1, Global: [3]int{global, 1, 1}, Local: [3]int{local, 1, 1}}
}

// NDR2 builds a 2-D range.
func NDR2(gx, gy, lx, ly int) NDRange {
	return NDRange{Dims: 2, Global: [3]int{gx, gy, 1}, Local: [3]int{lx, ly, 1}}
}

// validate checks OpenCL 1.x launch legality.
func (n NDRange) validate() error {
	if n.Dims < 1 || n.Dims > 3 {
		return fmt.Errorf("opencl: NDRange dims %d out of [1,3]", n.Dims)
	}
	for d := 0; d < n.Dims; d++ {
		if n.Global[d] <= 0 || n.Local[d] <= 0 {
			return fmt.Errorf("opencl: non-positive sizes in dim %d (global %d, local %d)", d, n.Global[d], n.Local[d])
		}
		if n.Global[d]%n.Local[d] != 0 {
			return fmt.Errorf("opencl: global size %d not a multiple of local size %d in dim %d (CL_INVALID_WORK_GROUP_SIZE)",
				n.Global[d], n.Local[d], d)
		}
	}
	for d := n.Dims; d < 3; d++ {
		if n.Global[d] != 1 || n.Local[d] != 1 {
			return fmt.Errorf("opencl: unused dimension %d must have size 1", d)
		}
	}
	return nil
}

// TotalItems is the global work-item count.
func (n NDRange) TotalItems() int64 {
	t := int64(1)
	for d := 0; d < n.Dims; d++ {
		t *= int64(n.Global[d])
	}
	return t
}

// NumGroups is the number of work-groups in the launch.
func (n NDRange) NumGroups() [3]int {
	var g [3]int
	for d := 0; d < 3; d++ {
		if n.Local[d] > 0 {
			g[d] = n.Global[d] / n.Local[d]
		} else {
			g[d] = 1
		}
	}
	return g
}

// Kernel is an OpenCL kernel: a per-work-item function plus the workload
// profile the device performance model consumes.
type Kernel struct {
	// Name identifies the kernel in events and counter reports.
	Name string
	// Fn is the work-item function. It must be safe for concurrent
	// invocation across work-groups; the items of one group run in turn.
	Fn func(wi *Item)
	// Profile characterises one launch for the device timing model.
	Profile func(n NDRange) *sim.KernelProfile
}

// Item is the work-item view passed to kernel functions: its position in
// the NDRange. An Item is valid only during the Fn call it is passed to:
// the runtime reuses one Item for every work-item a worker runs, so Fn
// must not retain it.
type Item struct {
	gid [3]int
}

// GlobalID returns get_global_id(d).
func (w *Item) GlobalID(d int) int { return w.gid[d] }

// execute runs the kernel functionally over the NDRange. Workers claim
// work-group indices from a shared counter, the launching goroutine among
// them, so groups run in any order; items within a group run in turn on
// the worker's one Item.
func (k *Kernel) execute(ndr NDRange) error {
	if k.Fn == nil {
		return fmt.Errorf("opencl: kernel %q has no function", k.Name)
	}
	groups := ndr.NumGroups()
	perZ := groups[0] * groups[1]
	nGroups := perZ * groups[2]

	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
	)
	work := func() {
		wi := &Item{}
		for g := int(next.Add(1) - 1); g < nGroups; g = int(next.Add(1) - 1) {
			if err := k.runGroup(wi, ndr.Local, [3]int{g % groups[0], g % perZ / groups[0], g / perZ}); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), nGroups); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}

// runGroup executes the work-group grp of local-sized groups, its items in
// turn on wi, the worker's Item, converting a work-item panic to an error.
// It allocates nothing.
func (k *Kernel) runGroup(wi *Item, local, grp [3]int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("opencl: kernel %q panicked in group %v: %v", k.Name, grp, r)
		}
	}()
	for lz := 0; lz < local[2]; lz++ {
		for ly := 0; ly < local[1]; ly++ {
			for lx := 0; lx < local[0]; lx++ {
				wi.gid = [3]int{
					grp[0]*local[0] + lx,
					grp[1]*local[1] + ly,
					grp[2]*local[2] + lz,
				}
				k.Fn(wi)
			}
		}
	}
	return nil
}
