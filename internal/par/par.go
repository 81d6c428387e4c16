// Package par provides the data-parallel loops used by the simulator and
// optimizer — run n independent tasks across spare cores — backed by one
// process-global, work-conserving compute pool (see pool.go). Loops take
// whatever helper tokens are free and otherwise run inline on the caller,
// so nested parallelism (tiles over ilt iterations over fft passes) never
// oversubscribes the machine; coarse outer tasks claim cores first through
// Reserve. On a single-core machine everything degrades to a plain loop
// with no goroutine overhead. The loops parallelize over outputs only —
// every task writes its own — and callers fold sums serially, in index
// order, so no result depends on the core count or the pool's state.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is re-panicked on the caller's goroutine when a task panics:
// it carries the task index, the original panic value, and the panicking
// goroutine's stack. Without it, a panic inside a worker goroutine would
// kill the whole process with a bare stack and no indication of which
// task failed.
type PanicError struct {
	Index int    // task index i whose fn(i) panicked
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// call runs fn(i), converting a panic into a *PanicError.
func call(i int, fn func(int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

// Catch runs fn and returns a panic in it as a *PanicError (Index -1; a
// *PanicError re-raised by a loop of this package is passed through with
// its task's stack) instead of unwinding further. It is for goroutines
// whose panic would otherwise end the process for one bad input: a job
// runner, a tile scheduler.
func Catch(fn func()) (pe *PanicError) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *PanicError:
			pe = v
		default:
			pe = &PanicError{Index: -1, Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// For runs fn(i) for every i in [0, n), fanning out across however many
// pool tokens are currently free (at most GOMAXPROCS). It returns when all
// calls have completed. fn must be safe to call concurrently for distinct
// i. If any task panics, For re-panics on the caller's goroutine with a
// *PanicError identifying the first panicking task; the remaining tasks
// still run to completion first.
func For(n int, fn func(i int)) {
	forN(runtime.GOMAXPROCS(0), n, fn)
}

// forN is For with an explicit bound: the caller and up to workers-1 helper
// goroutines, each backed by a pool token, run the same claim-next loop — a
// plain in-order loop on the caller when the pool is saturated. Every task
// runs; the first panic caught is re-raised once all have.
func forN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	helpers := acquireTokens(min(workers, n) - 1)
	if helpers == 0 {
		poolInlineTotal.Inc()
	}
	poolHelpersTotal.Add(int64(helpers))

	var next atomic.Int64
	var first atomic.Pointer[PanicError]
	body := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if pe := call(i, fn); pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			// The token returns before wg.Done (LIFO defers), so every
			// helper token is back by the time forN returns.
			defer wg.Done()
			defer releaseToken()
			body()
		}()
	}
	body() // the caller's own core always participates
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}
