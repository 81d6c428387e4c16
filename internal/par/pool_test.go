package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForNPanicReturnsTokens is the regression test for the panic-path
// token leak: a helper whose tasks panic must return its token to the pool
// before the PanicError reaches the caller. Leaked tokens would silently
// serialize every later parallel loop in the process.
func TestForNPanicReturnsTokens(t *testing.T) {
	withAndWithoutReservation(t, panicReturnsTokens)
}

func panicReturnsTokens(t *testing.T) {
	base := TokensInUse()
	for round := 0; round < 50; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("forN returned despite panicking tasks")
				}
			}()
			forN(8, 64, func(i int) { panic("boom") })
		}()
		if got := TokensInUse(); got != base {
			t.Fatalf("round %d: %d tokens in use after panic, want %d", round, got, base)
		}
	}
	// The pool must still hand out tokens afterwards: a full-width loop
	// runs to completion and covers every index.
	var ran atomic.Int64
	forN(8, 64, func(i int) { ran.Add(1) })
	if got := ran.Load(); got != 64 {
		t.Fatalf("post-panic loop ran %d tasks, want 64", got)
	}
	if got := TokensInUse(); got != base {
		t.Fatalf("%d tokens in use after clean loop, want %d", got, base)
	}
}

// TestNestedLoopsNeverExceedCapacity saturates the pool with reservations
// plus deeply nested parallel loops and samples the occupancy gauge
// throughout: tokens in use must never exceed Capacity(), i.e. nested par
// calls cannot oversubscribe the machine.
func TestNestedLoopsNeverExceedCapacity(t *testing.T) {
	capTokens := Capacity()
	var maxSeen atomic.Int64
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := int64(TokensInUse()); v > maxSeen.Load() {
				maxSeen.Store(v)
			}
			runtime.Gosched()
		}
	}()

	// Outer layer: more reservation-holding tasks than cores, each running
	// nested For layers that try to fan out further.
	outer := 2*capTokens + 2
	var wg sync.WaitGroup
	wg.Add(outer)
	for o := 0; o < outer; o++ {
		go func() {
			defer wg.Done()
			res, err := Reserve(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			defer res.Release()
			For(8, func(int) {
				For(4, func(c int) {
					s := 0.0
					for i := c * 16; i < (c+1)*16; i++ {
						s += float64(i)
					}
					_ = s
				})
			})
		}()
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()
	if got := maxSeen.Load(); got > int64(capTokens) {
		t.Fatalf("pool occupancy peaked at %d tokens, capacity is %d", got, capTokens)
	}
}

// TestReserveBlocksAtCapacityAndHandsOff: reservations beyond capacity
// queue FIFO and wake as earlier holders release.
func TestReserveBlocksAtCapacityAndHandsOff(t *testing.T) {
	capTokens := Capacity()
	held := make([]*Reservation, capTokens)
	for i := range held {
		r, err := Reserve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held[i] = r
	}
	acquired := make(chan *Reservation, 1)
	go func() {
		r, err := Reserve(context.Background())
		if err != nil {
			t.Error(err)
		}
		acquired <- r
	}()
	select {
	case <-acquired:
		t.Fatal("Reserve succeeded with the pool at capacity")
	case <-time.After(20 * time.Millisecond):
	}
	// While an outer reservation waits, inner loops must get no helpers.
	if got := acquireTokens(4); got != 0 {
		t.Fatalf("inner acquire got %d tokens while an outer reservation waits", got)
	}
	held[0].Release()
	select {
	case r := <-acquired:
		r.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("queued Reserve not woken by Release")
	}
	for _, r := range held[1:] {
		r.Release()
	}
	if got, want := TokensInUse(), 0; got != want {
		t.Fatalf("%d tokens in use after all releases, want %d", got, want)
	}
}

// TestReserveCancel: a canceled Reserve returns ctx.Err() and leaks
// nothing, whether it was still queued or had just been handed a token.
func TestReserveCancel(t *testing.T) {
	capTokens := Capacity()
	held := make([]*Reservation, capTokens)
	for i := range held {
		r, err := Reserve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held[i] = r
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := Reserve(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled Reserve returned %v, want context.Canceled", err)
	}
	for _, r := range held {
		r.Release()
	}
	if got := TokensInUse(); got != 0 {
		t.Fatalf("%d tokens in use after cancel + releases, want 0", got)
	}
	// Double-release must be a no-op.
	held[0].Release()
	if got := TokensInUse(); got != 0 {
		t.Fatalf("double release corrupted the count: %d tokens in use", got)
	}
}
