package opencl

import (
	"fmt"
	"runtime"
	"sync"

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

// GroupSize is the number of work-items per work-group.
func (n NDRange) GroupSize() int {
	s := 1
	for d := 0; d < n.Dims; d++ {
		s *= n.Local[d]
	}
	return s
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

// Kernel is an OpenCL kernel: a per-work-item function plus the metadata the
// runtime needs (barrier usage, local memory) and the workload profile the
// device performance model consumes.
type Kernel struct {
	// Name identifies the kernel in events and counter reports.
	Name string
	// Fn is the work-item function. It must be safe for concurrent
	// invocation across work-groups; within a group, invocations are
	// concurrent only when UsesBarrier is set.
	Fn func(wi *Item)
	// UsesBarrier declares that Fn calls Item.Barrier. Barrier kernels run
	// one goroutine per work-item within each group (as real hardware runs
	// them in lock-step); barrier-free kernels run items sequentially per
	// group, which is dramatically cheaper.
	UsesBarrier bool
	// MakeLocals allocates the group's local memory; each work-group gets
	// one value shared by its items via Item.Locals. Nil if unused.
	MakeLocals func() any
	// Profile characterises one launch for the device timing model.
	Profile func(n NDRange) *sim.KernelProfile
}

// Item is the work-item view passed to kernel functions: identity within the
// NDRange, the group's local memory, and the barrier primitive. An Item is
// valid only during the Fn call it is passed to: on the barrier-free path
// the runtime reuses one Item for every work-item a worker runs, so Fn must
// not retain it.
type Item struct {
	gid, lid, grp [3]int
	ndr           *NDRange
	// Locals is the value MakeLocals returned for this item's work-group.
	Locals any
	bar    *groupBarrier
}

// GlobalID returns get_global_id(d).
func (w *Item) GlobalID(d int) int { return w.gid[d] }

// LocalID returns get_local_id(d).
func (w *Item) LocalID(d int) int { return w.lid[d] }

// GroupID returns get_group_id(d).
func (w *Item) GroupID(d int) int { return w.grp[d] }

// GlobalSize returns get_global_size(d).
func (w *Item) GlobalSize(d int) int { return w.ndr.Global[d] }

// LocalSize returns get_local_size(d).
func (w *Item) LocalSize(d int) int { return w.ndr.Local[d] }

// NumGroups returns get_num_groups(d).
func (w *Item) NumGroups(d int) int { return w.ndr.Global[d] / w.ndr.Local[d] }

// Barrier synchronises all work-items of the group (CLK_LOCAL_MEM_FENCE |
// CLK_GLOBAL_MEM_FENCE). Calling it from a kernel that did not declare
// UsesBarrier panics: the sequential execution path cannot honour it, the
// same way real OpenCL deadlocks when barriers are mis-declared.
func (w *Item) Barrier() {
	if w.bar == nil {
		panic("opencl: kernel did not declare UsesBarrier but called Barrier")
	}
	w.bar.await()
}

// groupBarrier is a reusable cyclic barrier for one work-group. If any item
// panics, the barrier is broken and all waiters panic too, so a faulty
// kernel surfaces as an error instead of a deadlocked work-group.
type groupBarrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	size   int
	count  int
	gen    int
	broken bool
}

func newGroupBarrier(size int) *groupBarrier {
	b := &groupBarrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *groupBarrier) await() {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		panic("opencl: barrier broken by a panicking work-item")
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	broken := b.broken
	b.mu.Unlock()
	if broken {
		panic("opencl: barrier broken by a panicking work-item")
	}
}

// breakBarrier releases all waiters with a panic.
func (b *groupBarrier) breakBarrier() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// execute runs the kernel functionally over the NDRange: work-groups are
// distributed over a host worker pool; items within a group run sequentially
// (or as goroutines with a cyclic barrier for UsesBarrier kernels). Every
// Item of the launch shares ndr, and each worker reuses one Item across the
// barrier-free groups it runs.
func (k *Kernel) execute(ndr NDRange) error {
	if k.Fn == nil {
		return fmt.Errorf("opencl: kernel %q has no function", k.Name)
	}
	groups := ndr.NumGroups()
	nGroups := groups[0] * groups[1] * groups[2]
	workers := runtime.GOMAXPROCS(0)
	if workers > nGroups {
		workers = nGroups
	}
	if workers < 1 {
		workers = 1
	}

	var wg sync.WaitGroup
	idx := make(chan int, workers)
	errs := make(chan error, 1)
	reportErr := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wi := &Item{ndr: &ndr}
			for g := range idx {
				gz := g / (groups[0] * groups[1])
				rem := g % (groups[0] * groups[1])
				gy := rem / groups[0]
				gx := rem % groups[0]
				if err := k.runGroup(wi, [3]int{gx, gy, gz}); err != nil {
					reportErr(err)
				}
			}
		}()
	}
	for g := 0; g < nGroups; g++ {
		idx <- g
	}
	close(idx)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// runGroup executes one work-group, converting work-item panics to errors.
// A barrier-free group runs its items in turn on wi, the worker's Item; a
// barrier group gets one Item per work-item, each on its own goroutine.
func (k *Kernel) runGroup(wi *Item, grp [3]int) (err error) {
	ndr := wi.ndr
	var locals any
	if k.MakeLocals != nil {
		locals = k.MakeLocals()
	}
	if !k.UsesBarrier {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("opencl: kernel %q panicked in group %v: %v", k.Name, grp, r)
			}
		}()
		wi.grp, wi.Locals = grp, locals
		for lz := 0; lz < ndr.Local[2]; lz++ {
			for ly := 0; ly < ndr.Local[1]; ly++ {
				for lx := 0; lx < ndr.Local[0]; lx++ {
					wi.lid = [3]int{lx, ly, lz}
					wi.gid = [3]int{
						grp[0]*ndr.Local[0] + lx,
						grp[1]*ndr.Local[1] + ly,
						grp[2]*ndr.Local[2] + lz,
					}
					k.Fn(wi)
				}
			}
		}
		return nil
	}

	size := ndr.GroupSize()
	bar := newGroupBarrier(size)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for lz := 0; lz < ndr.Local[2]; lz++ {
		for ly := 0; ly < ndr.Local[1]; ly++ {
			for lx := 0; lx < ndr.Local[0]; lx++ {
				item := &Item{
					ndr:    ndr,
					grp:    grp,
					lid:    [3]int{lx, ly, lz},
					gid:    [3]int{grp[0]*ndr.Local[0] + lx, grp[1]*ndr.Local[1] + ly, grp[2]*ndr.Local[2] + lz},
					Locals: locals,
					bar:    bar,
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if err == nil {
								err = fmt.Errorf("opencl: kernel %q panicked in group %v: %v", k.Name, grp, r)
							}
							mu.Unlock()
							bar.breakBarrier()
						}
					}()
					k.Fn(item)
				}()
			}
		}
	}
	wg.Wait()
	return err
}
