package par

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain sizes the pool on the whole machine before -cpu lowers
// GOMAXPROCS: a pool first used at GOMAXPROCS 1 has no helpers at all.
func TestMain(m *testing.M) {
	Capacity()
	os.Exit(m.Run())
}

// withAndWithoutReservation runs f as two subtests: with no reservation held, where every
// loop forks cold helpers, and with one held, where helpers poll between
// loops.
func withAndWithoutReservation(t *testing.T, f func(t *testing.T)) {
	t.Run("cold", f)
	t.Run("reserved", func(t *testing.T) {
		r, err := Reserve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Release()
		f(t)
	})
}

// helperGoroutines counts the goroutines running a helper, read from their
// stacks rather than from the pool's own count.
func helperGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("par.(*helper).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitForNoHelpers waits, at most a second, for every helper goroutine to
// have exited, and fails the test if one has not.
func waitForNoHelpers(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); live.Load() > 0 || helperGoroutines() > 0; time.Sleep(warmWindow / 10) {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers (%d goroutines) still alive with %d reservations held", live.Load(), helperGoroutines(), reserved.Load())
		}
	}
}

// TestHelpersNeverExceedCapacityMinusOne: goroutines loop, some under a
// reservation, some not, with nested loops, while a sampler reads the
// count of helper goroutines: never more than Capacity()-1, however many
// loops want helpers at once. (A count read off the goroutines' stacks
// would also see a helper that has decremented the count and is exiting.)
func TestHelpersNeverExceedCapacityMinusOne(t *testing.T) {
	waitForNoHelpers(t)
	var maxSeen atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := live.Load(); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := range 2*Capacity() + 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if g%2 == 0 {
					r, err := Reserve(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					forN(8, 8, func(int) { forN(4, 4, func(int) { spin(5 * time.Microsecond) }) })
					r.Release()
				} else {
					forN(8, 8, func(int) { spin(5 * time.Microsecond) })
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	if got, want := maxSeen.Load(), int64(Capacity()-1); got > want {
		t.Fatalf("%d helper goroutines at once, want at most Capacity()-1 = %d", got, want)
	}
	waitForNoHelpers(t)
}

// TestReserveAtCapacityWhileAHelperPolls: a helper polling for its next
// loop holds no token, so the reservations that fill the pool are granted
// at once while it polls.
func TestReserveAtCapacityWhileAHelperPolls(t *testing.T) {
	if Capacity() < 2 {
		t.Skip("a pool of one token has no helpers")
	}
	waitForNoHelpers(t)
	first, err := Reserve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Release()
	polled := false
	for range 100 {
		forN(2, 2, func(int) { spin(20 * time.Microsecond) })
		polling := false
		for start := time.Now(); !polling && time.Since(start) < warmWindow/2; runtime.Gosched() {
			idleMu.Lock()
			polling = len(idle) > 0
			idleMu.Unlock()
		}
		if !polling {
			continue
		}
		polled = true
		if got := TokensInUse(); got != 1 {
			t.Fatalf("%d tokens in use while a helper polls beside one reservation, want 1", got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		var rest []*Reservation
		for range Capacity() - 1 {
			r, err := Reserve(ctx)
			if err != nil {
				t.Fatalf("Reserve with a helper polling: %v", err)
			}
			rest = append(rest, r)
		}
		cancel()
		for _, r := range rest {
			r.Release()
		}
	}
	if !polled {
		t.Fatal("no helper was seen polling in 100 loops under a reservation")
	}
}

// TestHelpersExitWithTheLastReservation: helpers poll while a reservation
// is held and exit once none is, so the goroutine count returns to where
// it was before the descent; with no reservation held a helper never
// polls at all — the idle list stays empty — and none is left behind.
func TestHelpersExitWithTheLastReservation(t *testing.T) {
	if Capacity() < 2 {
		t.Skip("a pool of one token has no helpers")
	}
	waitForNoHelpers(t)
	base := runtime.NumGoroutine()
	r, err := Reserve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for range 50 {
		For(Capacity(), func(int) { spin(10 * time.Microsecond) })
	}
	r.Release()
	waitForNoHelpers(t)
	var polled atomic.Bool
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			idleMu.Lock()
			if len(idle) > 0 {
				polled.Store(true)
			}
			idleMu.Unlock()
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for range 50 {
		For(Capacity(), func(int) { spin(10 * time.Microsecond) })
	}
	waitForNoHelpers(t)
	close(stop)
	<-sampled
	if polled.Load() {
		t.Fatal("a helper polled for a loop with no reservation held")
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the loops, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// spin busies its goroutine for d.
func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}
