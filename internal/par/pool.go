package par

import (
	"context"
	"runtime"
	"sync"

	"mosaic/internal/obs"
)

// Process-global compute pool.
//
// Every parallel construct in this package draws helper concurrency from
// one shared set of tokens, fixed at GOMAXPROCS when the pool is first
// touched. A token is a core's worth of execution: at any instant the
// number of pool-managed goroutines actively computing never exceeds the
// token capacity, no matter how deeply parallel loops nest (tile workers
// running ilt iterations running fft passes). Two admission disciplines
// share the capacity:
//
//   - Outer reservations (Reserve): coarse, long-lived tasks — one per
//     concurrently running tile — block FIFO until a token frees. A queued
//     reservation has strict priority: while any outer task waits, inner
//     loops get no new helpers, so tile-level parallelism claims cores
//     first and inner parallelism soaks up only the remainder.
//   - Inner helpers (acquireTokens): the data-parallel loops (For, forN,
//     ForChunks) take however many unreserved tokens are free right now
//     and fall back to inline execution on the calling goroutine when none
//     are — never queueing. A saturated pool therefore costs a parallel
//     loop nothing: the caller's own core is always available to it, a
//     1-tile run still fans out over every idle core, and a 16-tile run on
//     4 cores degrades each tile to clean inline execution instead of
//     context-thrashing 16*GOMAXPROCS goroutines.

// Pool observability: instantaneous token occupancy and reservation count,
// plus how often loops went inline (saturated) versus spawned helpers.
var (
	poolTokensGauge   = obs.NewGauge("par_pool_tokens_in_use")
	poolReservedGauge = obs.NewGauge("par_pool_reserved")
	poolInlineTotal   = obs.NewCounter("par_pool_inline_total")
	poolHelpersTotal  = obs.NewCounter("par_pool_helpers_total")
)

type pool struct {
	mu       sync.Mutex
	cap      int             // total tokens (GOMAXPROCS at first use)
	inUse    int             // tokens held by helpers and reservations
	reserved int             // tokens held by reservations (subset of inUse)
	outerQ   []chan struct{} // FIFO of blocked Reserve calls
}

var (
	poolOnce sync.Once
	thePool  *pool
)

func getPool() *pool {
	poolOnce.Do(func() {
		thePool = &pool{cap: runtime.GOMAXPROCS(0)}
	})
	return thePool
}

// Capacity returns the pool's token capacity (GOMAXPROCS at first use).
func Capacity() int { return getPool().cap }

// InUse returns the instantaneous number of tokens held. It exists for
// tests and debugging; the same value is exported as the
// par_pool_tokens_in_use gauge.
func (p *pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// TokensInUse samples the pool occupancy (helpers + reservations).
func TokensInUse() int { return getPool().InUse() }

// acquireTokens claims up to want inner-helper tokens, returning how many
// it got (possibly zero — the caller must then run inline). It never
// blocks, and it yields to queued outer reservations: while a Reserve call
// waits, inner loops are denied new helpers so cores drain toward the
// tile level.
func acquireTokens(want int) int {
	if want <= 0 {
		return 0
	}
	p := getPool()
	p.mu.Lock()
	got := 0
	if len(p.outerQ) == 0 {
		if free := p.cap - p.inUse; free > 0 {
			got = min(want, free)
			p.inUse += got
		}
	}
	tokens := p.inUse
	p.mu.Unlock()
	poolTokensGauge.Set(float64(tokens))
	return got
}

// releaseToken returns one inner-helper token, handing it directly to the
// oldest queued outer reservation if one is waiting.
func releaseToken() {
	p := getPool()
	p.mu.Lock()
	if len(p.outerQ) > 0 {
		// Transfer the token to the waiting reservation without it ever
		// becoming free: inUse is unchanged, ownership moves.
		ch := p.outerQ[0]
		p.outerQ = p.outerQ[1:]
		p.reserved++
		reserved := p.reserved
		p.mu.Unlock()
		close(ch)
		poolReservedGauge.Set(float64(reserved))
		return
	}
	p.inUse--
	tokens := p.inUse
	p.mu.Unlock()
	poolTokensGauge.Set(float64(tokens))
}

// Reservation is one outer token held by a coarse-grained task (a running
// tile). Release returns the token; releasing twice is a no-op.
type Reservation struct {
	p        *pool
	released bool
	mu       sync.Mutex
}

// Reserve blocks until an outer token is available (FIFO among Reserve
// callers, priority over inner helpers) or ctx is done. The caller owns
// one core's worth of admission until Release: the goroutine holding a
// reservation is expected to compute on it, with its nested parallel
// loops soaking up only tokens nobody else holds.
func Reserve(ctx context.Context) (*Reservation, error) {
	p := getPool()
	p.mu.Lock()
	if len(p.outerQ) == 0 && p.inUse < p.cap {
		p.inUse++
		p.reserved++
		tokens, reserved := p.inUse, p.reserved
		p.mu.Unlock()
		poolTokensGauge.Set(float64(tokens))
		poolReservedGauge.Set(float64(reserved))
		return &Reservation{p: p}, nil
	}
	ch := make(chan struct{})
	p.outerQ = append(p.outerQ, ch)
	p.mu.Unlock()
	select {
	case <-ch:
		return &Reservation{p: p}, nil
	case <-ctx.Done():
		p.mu.Lock()
		for i, qc := range p.outerQ {
			if qc == ch {
				p.outerQ = append(p.outerQ[:i], p.outerQ[i+1:]...)
				p.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		p.mu.Unlock()
		// The token was handed to us concurrently with cancellation;
		// give it back before reporting the cancel.
		r := &Reservation{p: p}
		r.Release()
		return nil, ctx.Err()
	}
}

// Release returns the reservation's token to the pool (or hands it to the
// next queued reservation). Safe to call more than once.
func (r *Reservation) Release() {
	r.mu.Lock()
	if r.released {
		r.mu.Unlock()
		return
	}
	r.released = true
	r.mu.Unlock()

	p := r.p
	p.mu.Lock()
	p.reserved--
	if len(p.outerQ) > 0 {
		ch := p.outerQ[0]
		p.outerQ = p.outerQ[1:]
		p.reserved++
		reserved := p.reserved
		p.mu.Unlock()
		close(ch)
		poolReservedGauge.Set(float64(reserved))
		return
	}
	p.inUse--
	tokens, reserved := p.inUse, p.reserved
	p.mu.Unlock()
	poolTokensGauge.Set(float64(tokens))
	poolReservedGauge.Set(float64(reserved))
}
