package main

import (
	"math"
	"testing"
	"time"
)

// sleeper is a workload whose operation i sleeps for a time set by its
// input i%3 and by which repeat of that input it is.
type sleeper struct{}

func (sleeper) Setup() error  { return nil }
func (sleeper) Warm() error   { return nil }
func (sleeper) Finish() error { return nil }
func (sleeper) Op(i, _ int) (opResult, error) {
	d := time.Duration(1+i%3) * time.Millisecond
	if i >= 3 {
		d *= 2 // only the first block runs undisturbed
	}
	time.Sleep(d)
	return opResult{Key: string(rune('a' + i%3)), Latency: d}, nil
}

// TestRunPhaseEndsOnBlocks pins the property the timing metrics rest on: a
// phase is a whole number of blocks whatever the number of racing callers,
// at least the minimum, at most the cap.
func TestRunPhaseEndsOnBlocks(t *testing.T) {
	for _, clients := range []int{1, 2, 5} {
		recs, _ := phase{Clients: clients, Block: 3, MinOps: 6}.run(sleeper{})
		if len(recs) != 6 {
			t.Errorf("%d clients, no time: %d ops, want the minimum 6", clients, len(recs))
		}
		recs, wall := phase{Clients: clients, Block: 3, MinOps: 3, Dur: 40 * time.Millisecond}.run(sleeper{})
		if len(recs)%3 != 0 || wall < 40*time.Millisecond {
			t.Errorf("%d clients, 40 ms: %d ops in %v, want whole blocks of 3 and the full time", clients, len(recs), wall)
		}
		for i, r := range recs {
			if r.Index != i {
				t.Fatalf("%d clients: record %d has index %d; the phase must be a prefix of the schedule", clients, i, r.Index)
			}
		}
		recs, _ = phase{Clients: clients, Block: 3, MinOps: 3, MaxOps: 9, Dur: time.Hour}.run(sleeper{})
		if len(recs) != 9 {
			t.Errorf("%d clients, capped: %d ops, want 9", clients, len(recs))
		}
	}
}

// TestCalibratedPhases: one caller measures the host speed after every
// operation, several at the block boundaries, where the phase drains.
func TestCalibratedPhases(t *testing.T) {
	for _, clients := range []int{1, 3} {
		recs, _ := phase{Clients: clients, Block: 3, MinOps: 6, Calibrate: true}.run(sleeper{})
		if len(recs) != 6 {
			t.Fatalf("%d clients: %d ops, want 6", clients, len(recs))
		}
		for i, r := range recs {
			if !(r.HostSpeed > 0) || math.IsInf(r.HostSpeed, 0) {
				t.Errorf("%d clients: operation %d has host speed %g", clients, i, r.HostSpeed)
			}
			for _, q := range recs {
				if r.HostSpeed < minCorrection*q.HostSpeed {
					t.Errorf("%d clients: host speeds %g and %g are further apart than the correction may reach", clients, r.HostSpeed, q.HostSpeed)
				}
			}
			if clients > 1 && r.HostSpeed != recs[i/3*3].HostSpeed {
				t.Errorf("operation %d: host speed %g differs from its block's %g", i, r.HostSpeed, recs[i/3*3].HostSpeed)
			}
			if drained := max(recs[0].End, recs[1].End, recs[2].End); clients > 1 && i >= 3 && r.Start < drained {
				t.Errorf("operation %d of the second block started at %v, before the first block had drained at %v", i, r.Start, drained)
			}
		}
	}
}

// TestTimingMetricsTakeTheQuietest: every operation is charged its input's
// best latency, and throughput is that of the fastest block; both scale
// with the host speed measured next to the operations.
func TestTimingMetricsTakeTheQuietest(t *testing.T) {
	recs, wall := phase{Clients: 1, Block: 3, MinOps: 9}.run(sleeper{})
	lat := inputLatencies(recs)
	if len(lat) != 9 {
		t.Fatalf("%d charged latencies, want 9", len(lat))
	}
	for i, l := range lat {
		if want := float64(1+i%3) * 1e-3; math.Abs(l-want) > 1e-9 {
			t.Errorf("operation %d charged %g s, want its input's best, %g s", i, l, want)
		}
	}
	thr := blockThroughputs(recs, 3, wall)
	if len(thr) != 3 || !(thr[0] > thr[1] && thr[0] > thr[2]) {
		t.Errorf("block throughputs %v: want three, the undisturbed first block the fastest", thr)
	}

	// A host at half speed in the later blocks explains their doubled latency.
	for i := 3; i < len(recs); i++ {
		recs[i].HostSpeed = 0.5
	}
	slow := blockThroughputs(recs, 3, wall)
	if math.Abs(slow[1]-2*thr[1]) > 1e-9*thr[1] {
		t.Errorf("block at host speed 0.5: %g ops per calibrated second, want twice the wall-clock %g", slow[1], thr[1])
	}
	recs[4].HostSpeed = 0.25 // 4 ms at a quarter of the speed: now its input's best
	if l := inputLatencies(recs); math.Abs(l[1]-1e-3) > 1e-9 {
		t.Errorf("operation 1 charged %g s, want its input's best calibrated latency, 1 ms", l[1])
	}
}
