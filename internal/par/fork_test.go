package par

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkForFork times For(2, …) of two ≈ 20 µs tasks back to back, cold
// (no reservation held: every loop forks a fresh helper) and warm (one
// held, as in a descent: the helper polls between loops). Task 0, on the
// caller, waits up to 1 ms for task 1 to start before it works, so task 1
// runs on the helper and fork-µs, the median time from For to its start,
// is the fork's latency. It needs two cores.
func BenchmarkForFork(b *testing.B) {
	if Capacity() < 2 {
		b.Skip("needs a pool of two tokens")
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			if warm {
				r, err := Reserve(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				defer r.Release()
			}
			lat := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				var started atomic.Bool
				t0 := time.Now()
				For(2, func(i int) {
					if i == 1 {
						lat = append(lat, time.Since(t0))
						started.Store(true)
					} else {
						for !started.Load() && time.Since(t0) < time.Millisecond {
						}
					}
					spin(20 * time.Microsecond)
				})
			}
			slices.Sort(lat)
			if len(lat) > 0 {
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "fork-µs")
			}
		})
	}
}
