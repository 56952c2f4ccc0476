package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{1, 10, 1},
		{4, 10, 4},
		{4, 3, 3},
		{4, 0, 1},
		{0, 1 << 20, procs},
		{-1, 1 << 20, procs},
		{0, 1, 1},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestForRunsEveryIndexOnce runs the pool from several worker counts,
// under -race the check that slot-addressed writes need no other
// synchronization than For's return.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 0} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			seen := make([]int, n)
			var calls atomic.Int64
			For(workers, n, func(i int) {
				seen[i]++
				calls.Add(1)
			})
			if int(calls.Load()) != n {
				t.Fatalf("workers %d, n %d: %d calls", workers, n, calls.Load())
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForOneWorkerRunsInOrder pins the inline path: one worker runs the
// indices in order on the caller's goroutine.
func TestForOneWorkerRunsInOrder(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("order %v, want 5 calls", order)
	}
}

// TestForOneWorkerAllocatesNothing: the inline path starts no goroutine
// and so allocates nothing of its own.
func TestForOneWorkerAllocatesNothing(t *testing.T) {
	sum := 0
	fn := func(i int) { sum += i }
	if a := testing.AllocsPerRun(100, func() { For(1, 64, fn) }); a != 0 {
		t.Fatalf("For(1, …) allocates %.0f times per call", a)
	}
}
