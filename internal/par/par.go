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
// While a window's descent holds a reservation, helpers that finished a
// loop poll for the next one instead of exiting (helper.go).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
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

// forN is For with an explicit bound: the caller and up to workers-1
// helpers (helper.go), each backed by a pool token, run the same claim-next
// loop — a plain in-order loop on the caller when the pool is saturated.
// Every task runs; the first panic caught is re-raised once all have.
func forN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	tokens := acquireTokens(min(workers, n) - 1)
	l := &loop{n: n, fn: fn, seats: make([]atomic.Bool, tokens)}
	l.busy.Store(int64(tokens))
	sent := 0
	for sent < tokens && dispatch(l, sent) {
		sent++
	}
	for range tokens - sent { // no helper left to carry these tokens
		releaseToken()
	}
	l.busy.Add(int64(sent - tokens))
	if sent == 0 {
		poolInlineTotal.Inc()
	}
	poolHelpersTotal.Add(int64(sent))

	l.body() // the caller's own core always participates
	l.join(sent)
	if pe := l.first.Load(); pe != nil {
		panic(pe)
	}
}

// loop is one forN call as its caller and helpers share it.
type loop struct {
	n     int
	fn    func(int)
	next  atomic.Int64               // the next task index to claim
	first atomic.Pointer[PanicError] // the first panic caught
	// seats[s] is taken by helper s when it starts on the loop, or by the
	// caller when it finds that helper not started once every task is
	// claimed; whichever takes it owns the seat's token.
	seats []atomic.Bool
	busy  atomic.Int64                  // seats whose token is not back yet
	wake  atomic.Pointer[chan struct{}] // set once the caller parks
}

// body claims and runs tasks until none is left.
func (l *loop) body() {
	for i := int(l.next.Add(1)) - 1; i < l.n; i = int(l.next.Add(1)) - 1 {
		if pe := call(i, l.fn); pe != nil {
			l.first.CompareAndSwap(nil, pe)
		}
	}
}

// leave marks one seat's token as back and wakes a parked caller when it
// was the last.
func (l *loop) leave() {
	if l.busy.Add(-1) == 0 {
		if w := l.wake.Load(); w != nil {
			close(*w)
		}
	}
}

// join waits for the helpers of the first sent seats. A helper that has
// not started by now would find no task: its seat is taken back with its
// token rather than waited for. The caller spins for the rest — a parked
// caller lets its core halt, and the helpers it would wake next arrive
// late — and parks only once the wait outlasts warmWindow, as it does
// behind the long tasks of a kernel build.
func (l *loop) join(sent int) {
	for s := range sent {
		if l.seats[s].CompareAndSwap(false, true) {
			releaseToken()
			l.leave()
		}
	}
	for start := time.Now(); l.busy.Load() > 0; runtime.Gosched() {
		if time.Since(start) > warmWindow {
			w := make(chan struct{})
			l.wake.Store(&w)
			if l.busy.Load() > 0 {
				<-w
			}
			return
		}
	}
}
