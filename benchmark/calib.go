package main

import (
	"math"
	"math/cmplx"
	"time"
)

// The sandbox this benchmark is gated on shares its host. The same binary
// on the same input runs up to 1.6x slower for stretches of ten seconds to
// several minutes, and never faster than its own speed, so the wall-clock
// percentiles of a 16 s run read the neighbours as much as the program:
// over ten same-code runs the plain p80 spread by 20-30% of its median on
// the clip workloads, past any bound the benchmark may set. Two things
// bring that to a few percent, both in the harness and none in the program:
//
//   - the timing metrics take the quietest the run saw (measure.go), and
//   - next to the measured operations the harness times a fixed reference
//     kernel, and scales wall seconds by how fast the host ran it.
//
// The reference is this file's own code, so no change to the program moves
// it. It is work of the program's kind: radix-2 butterflies along the rows
// and columns of a window-sized complex array. It tracks the program only
// in part, and not the same way under every kind of disturbance: when a
// neighbour takes CPU the clip workloads slow by 30% and the reference by
// 12%, under heavy cache contention the reference slows the more. Hence
// the limit on the correction, below, and the need for both measures.

// refNominal is what one round of the reference takes on the sandbox when
// nothing else runs, so that calibrated seconds are wall seconds there.
// On another machine they differ from wall seconds by a constant factor,
// which a comparison of two commits on one machine does not see.
const refNominal = 1030 * time.Microsecond

const (
	refGrid   = 128 // complex128 grid edge: 256 KiB, the program's window
	refSweeps = 1   // row+column sweeps per round
	refRounds = 5   // rounds per measurement; the fastest is used
)

type refKernel struct {
	a  []complex128
	tw []complex128
}

func newRefKernel() *refKernel {
	k := &refKernel{a: make([]complex128, refGrid*refGrid), tw: make([]complex128, refGrid/2)}
	for i := range k.tw {
		k.tw[i] = cmplx.Rect(1, -2*math.Pi*float64(i)/refGrid)
	}
	for i := range k.a {
		k.a[i] = complex(float64(i%17)/17, float64(i%13)/13)
	}
	return k
}

// pass runs the butterflies of one line. Scaled by 1/sqrt 2 they keep the
// array's energy, so the values neither grow nor decay into denormals
// however often the kernel runs.
func (k *refKernel) pass(off, stride int) {
	for size := 2; size <= refGrid; size <<= 1 {
		half, step := size/2, refGrid/size
		for s := 0; s < refGrid; s += size {
			for j := 0; j < half; j++ {
				u := k.a[off+(s+j)*stride]
				v := k.a[off+(s+j+half)*stride] * k.tw[j*step]
				k.a[off+(s+j)*stride] = (u + v) * math.Sqrt2 / 2
				k.a[off+(s+j+half)*stride] = (u - v) * math.Sqrt2 / 2
			}
		}
	}
}

// hostSpeed runs the reference and returns how fast the host ran it
// relative to refNominal: 1 on the quiet sandbox, 0.7 when the host runs
// this kind of work at 70% of its speed. The fastest of a few short rounds
// is taken: a slow host slows them all, a garbage collection that the
// operation before left running slows only some.
func (k *refKernel) hostSpeed() float64 {
	rounds := make([]float64, refRounds)
	for r := range rounds {
		t0 := time.Now()
		for s := 0; s < refSweeps; s++ {
			for y := 0; y < refGrid; y++ {
				k.pass(y*refGrid, 1)
			}
			for x := 0; x < refGrid; x++ {
				k.pass(x, refGrid)
			}
		}
		rounds[r] = time.Since(t0).Seconds()
	}
	return refNominal.Seconds() / percentile(rounds, 0)
}

// minCorrection limits the correction: a host speed counts as no less than
// this share of the best host speed seen next to it. The reference tracks
// the program through the mild slowdowns that make up most of the host's
// noise, but under heavy cache contention it slows far more than the
// program does (seen: reference at 0.32, clips_fast at 0.7 of its speed),
// and an operation measured then is better left looking slow, for the
// best-of-run to pass over, than made to look fast. The limit is relative
// so that it leaves the same room on a machine whose best is not exactly
// refNominal, and in a run the host slowed mildly from end to end.
const minCorrection = 0.85

// idleSpeed is hostSpeed for a machine at rest, where there is time for
// the median of several runs.
func (k *refKernel) idleSpeed() float64 {
	runs := make([]float64, 5)
	for i := range runs {
		runs[i] = k.hostSpeed()
	}
	return percentile(runs, 0.5)
}
