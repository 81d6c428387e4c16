package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"mosaic/internal/obs"
)

// Process-global compute pool: one buffered channel with a slot per core.
// A token in it is a core's worth of execution, so the pool-managed
// goroutines computing at once never exceed the capacity, however deeply
// parallel loops nest (tile workers running ilt iterations running fft
// passes). Admission is a send, in two modes:
//
//   - Reserve, one per concurrently running tile, blocks.
//   - acquireTokens, for the data-parallel loops, does not: a loop takes
//     what is free right now and otherwise runs inline on its caller, whose
//     own core is always available to it.
//
// A receive from a full channel with a parked sender moves that sender's
// token into the freed slot in the same step — the slot is never free in
// between — so while a reservation waits every inner send fails and cores
// drain toward the tile level. Waiters are served in the order the runtime
// parked them.

// Pool observability: instantaneous token occupancy and reservation count,
// plus how often loops went inline (saturated) versus spawned helpers.
var (
	poolTokensGauge   = obs.NewGauge("par_pool_tokens_in_use")
	poolReservedGauge = obs.NewGauge("par_pool_reserved")
	poolInlineTotal   = obs.NewCounter("par_pool_inline_total")
	poolHelpersTotal  = obs.NewCounter("par_pool_helpers_total")
)

// pool returns the token channel, sized by GOMAXPROCS at first use.
var pool = sync.OnceValue(func() chan struct{} {
	return make(chan struct{}, runtime.GOMAXPROCS(0))
})

// reserved counts the channel's tokens that reservations hold.
var reserved atomic.Int64

// Capacity returns the pool's token capacity (GOMAXPROCS at first use).
func Capacity() int { return cap(pool()) }

// TokensInUse samples the pool occupancy (helpers + reservations); the
// same value is exported as the par_pool_tokens_in_use gauge.
func TokensInUse() int { return len(pool()) }

// acquireTokens claims up to want inner-helper tokens, returning how many
// it got (possibly zero — the caller must then run inline). It never
// blocks, and gets nothing while a Reserve call waits.
func acquireTokens(want int) int {
	p := pool()
	got := 0
fill:
	for ; got < want; got++ {
		select {
		case p <- struct{}{}:
		default:
			break fill
		}
	}
	poolTokensGauge.Set(float64(len(p)))
	return got
}

// releaseToken returns one token; a parked Reserve call takes it over.
func releaseToken() {
	p := pool()
	<-p
	poolTokensGauge.Set(float64(len(p)))
}

// Reservation is one token held by a coarse-grained task (a running tile).
type Reservation struct{ once sync.Once }

// Reserve blocks until a token is available (ahead of inner helpers) or
// ctx is done. The caller owns one core's worth of admission until Release
// and is expected to compute on it, its nested parallel loops soaking up
// only tokens nobody else holds.
func Reserve(ctx context.Context) (*Reservation, error) {
	p := pool()
	select {
	case p <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	poolTokensGauge.Set(float64(len(p)))
	poolReservedGauge.Set(float64(reserved.Add(1)))
	return &Reservation{}, nil
}

// Release returns the reservation's token; a second call is a no-op.
func (r *Reservation) Release() {
	r.once.Do(func() {
		poolReservedGauge.Set(float64(reserved.Add(-1)))
		releaseToken()
	})
}
