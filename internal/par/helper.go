package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Helpers stay warm while a descent runs. A fresh goroutine on an idle
// core starts 60–70 µs after its fork at the median on a 2-vCPU VM
// (BenchmarkForFork), as long as a descent's tasks take to run, so a
// helper that finished its share keeps polling for the next loop for
// warmWindow instead of exiting — but only while some Reserve reservation
// is held, that is while a window's descent runs in tile.RunWindow, and
// the reservations leave a token that a loop could hand it. Any other
// loop (scoring, stitching, a kernel build) finds no warm helper and
// forks one as it always did, and a process that computes nothing holds
// no goroutine. A polling helper holds no token, so Reserve keeps its
// priority over loops.
//
// At most Capacity()-1 helper goroutines live at once, polling or not: a
// loop's caller is always a worker of its own, so that many helpers and
// one caller fill the machine.

// warmWindow bounds both a helper's poll for its next loop and a caller's
// spin before it parks. The gaps between a descent's task lists on the
// B1–B10 clips at 128 px are 15–70 µs at the median, 0.45–0.8 ms at p99.
const warmWindow = time.Millisecond

var (
	live   atomic.Int64 // helper goroutines alive
	idleMu sync.Mutex
	idle   []*helper // helpers polling for a loop
)

// helper is one helper goroutine; while it is on the idle list a caller
// hands it a loop by storing into it.
type helper struct {
	loop atomic.Pointer[loop]
	seat int // its seat in loop, written before loop is stored
}

// dispatch hands seat of l to a polling helper, or to a new goroutine
// while fewer than Capacity()-1 live; false means neither was possible.
func dispatch(l *loop, seat int) bool {
	idleMu.Lock()
	if k := len(idle) - 1; k >= 0 {
		h := idle[k]
		idle[k] = nil
		idle = idle[:k]
		h.seat = seat
		h.loop.Store(l)
		idleMu.Unlock()
		return true
	}
	idleMu.Unlock()
	for n := live.Load(); n < int64(Capacity()-1); n = live.Load() {
		if live.CompareAndSwap(n, n+1) {
			go new(helper).run(l, seat)
			return true
		}
	}
	return false
}

// run serves the loops handed to it until none comes within warmWindow.
func (h *helper) run(l *loop, seat int) {
	for l != nil {
		l, seat = h.serve(l, seat)
	}
}

// serve runs the helper's share of l, unless the caller took its seat
// back, and returns the next loop it is handed, or nil once it is to exit.
// The helper is back on the idle list, or no longer counted live, before
// its seat stops counting as busy: the caller's next loop, which may start
// at once, finds it there or may fork a helper in its place.
func (h *helper) serve(l *loop, seat int) (*loop, int) {
	ran := l.seats[seat].CompareAndSwap(false, true)
	if ran {
		l.body()
		releaseToken()
	}
	polling := warm()
	if polling {
		h.loop.Store(nil)
		idleMu.Lock()
		idle = append(idle, h)
		idleMu.Unlock()
	} else {
		live.Add(-1)
	}
	if ran {
		l.leave()
	}
	if !polling {
		return nil, 0
	}
	return h.await()
}

// warm reports whether a helper should poll: a reservation is held, so a
// descent runs, and not every token is, so a loop could still hand it one.
func warm() bool {
	r := reserved.Load()
	return r > 0 && r < int64(Capacity())
}

// await polls, while warm and at most warmWindow, for the loop a caller
// hands the idle helper, and takes it off the list when none came.
func (h *helper) await() (*loop, int) {
	for start := time.Now(); warm() && time.Since(start) < warmWindow; runtime.Gosched() {
		if l := h.loop.Load(); l != nil {
			return l, h.seat
		}
	}
	idleMu.Lock()
	defer idleMu.Unlock()
	if l := h.loop.Load(); l != nil { // handed a loop as the window closed
		return l, h.seat
	}
	for i, g := range idle {
		if g == h {
			idle[i] = idle[len(idle)-1]
			idle[len(idle)-1] = nil
			idle = idle[:len(idle)-1]
			break
		}
	}
	live.Add(-1)
	return nil, 0
}
