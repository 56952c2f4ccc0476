// Package par runs index-addressed work on a small pool of goroutines that
// claim indices from one atomic counter. Callers write each index's result
// to its own slot, so the outcome does not depend on which worker ran which
// index or in what order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the goroutine count For(workers, n, …) runs on: workers,
// or GOMAXPROCS when workers ≤ 0, capped at n and at least 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For runs fn(i) once for every i in [0, n) and returns when all calls have.
// The calling goroutine is one of Workers(workers, n) workers, so with one
// worker fn runs inline, in index order, and no goroutine starts.
func For(workers, n int, fn func(i int)) {
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
