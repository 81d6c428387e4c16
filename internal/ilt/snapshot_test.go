package ilt

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSnapshotResumeBitIdentical(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)

	// Reference: one uninterrupted run.
	ref, err := o.Run(layout)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations < 4 {
		t.Fatalf("reference run too short (%d iterations) to interrupt meaningfully", ref.Iterations)
	}

	// Interrupted run: cancel after the snapshot of iteration k.
	const k = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *Snapshot
	o2 := *o
	o2.Cfg.OnSnapshot = func(s *Snapshot) {
		if s.Iter == k {
			snap = s
			cancel()
		}
	}
	if _, err := o2.RunCtx(ctx, layout); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if snap == nil || snap.Iter != k {
		t.Fatalf("no snapshot captured at iteration %d", k)
	}

	// Round-trip the snapshot through its binary codec, as the daemon's
	// drain path does.
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Snapshot
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	// Resume and compare against the uninterrupted run.
	o3 := *o
	o3.Cfg.Resume = &restored
	res, err := o3.Run(layout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != ref.Iterations {
		t.Fatalf("resumed run did %d iterations, uninterrupted did %d", res.Iterations, ref.Iterations)
	}
	if len(res.History) != len(ref.History) {
		t.Fatalf("resumed history has %d entries, want %d", len(res.History), len(ref.History))
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] diverged:\nresumed:       %+v\nuninterrupted: %+v", i, res.History[i], ref.History[i])
		}
	}
	for i, v := range ref.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatalf("gray mask differs at pixel %d: %v vs %v", i, res.MaskGray.Data[i], v)
		}
	}
	for i, v := range ref.Mask.Data {
		if res.Mask.Data[i] != v {
			t.Fatalf("binary mask differs at pixel %d", i)
		}
	}
	if res.Objective != ref.Objective {
		t.Fatalf("objective differs: %v vs %v", res.Objective, ref.Objective)
	}

	// The seeded plateau run every warm-started job is: it stops on the
	// ObjTol stall counter, so a snapshot has to carry the counter and
	// Result.Seeded for a resume at any iteration to end where the
	// uninterrupted run does.
	so := *o
	so.Cfg.SeedMask = ref.MaskGray
	so.Cfg.ObjTol = 1e-6
	so.Cfg.Jumps = 0
	var snaps []*Snapshot
	so.Cfg.OnSnapshot = func(s *Snapshot) { snaps = append(snaps, s) }
	seeded, err := so.Run(layout)
	if err != nil {
		t.Fatal(err)
	}
	if !seeded.Seeded || seeded.Iterations >= so.Cfg.MaxIter || len(snaps) < 2 {
		t.Fatalf("seeded run: Seeded=%v, %d iterations, %d snapshots; want a plateau stop after the second",
			seeded.Seeded, seeded.Iterations, len(snaps))
	}
	so.Cfg.OnSnapshot = nil
	for _, snap := range snaps {
		so.Cfg.Resume = snap
		res, err := so.Run(layout)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != seeded.Iterations || !res.Seeded {
			t.Fatalf("resumed at %d: %d iterations, Seeded=%v; uninterrupted: %d, true",
				snap.Iter, res.Iterations, res.Seeded, seeded.Iterations)
		}
		for i, v := range seeded.MaskGray.Data {
			if res.MaskGray.Data[i] != v {
				t.Fatalf("resumed at %d: gray mask differs at pixel %d: %v vs %v", snap.Iter, i, res.MaskGray.Data[i], v)
			}
		}
	}
}

func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	var snap *Snapshot
	o.Cfg.OnSnapshot = func(s *Snapshot) { snap = s }
	o.Cfg.MaxIter = 3
	if _, err := o.Run(layout); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot emitted")
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := s.UnmarshalBinary(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if err := s.UnmarshalBinary(flipped); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if err := s.UnmarshalBinary([]byte("not a snapshot at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSnapshotResumeValidatesGrid(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	var snap *Snapshot
	o.Cfg.OnSnapshot = func(s *Snapshot) { snap = s }
	o.Cfg.MaxIter = 2
	if _, err := o.Run(layout); err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.P = bad.P.Crop(0, 0, 16, 16)
	o.Cfg.Resume = &bad
	if _, err := o.Run(layout); err == nil {
		t.Fatal("snapshot from a different grid accepted")
	}
}

// TestCancelFromAnotherGoroutine cancels a running optimization from a
// separate goroutine (as the job service does) and checks the run stops
// promptly with the context error. Run under -race this also verifies the
// cancellation path is data-race free.
func TestCancelFromAnotherGoroutine(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 1000 // far more than will run before the cancel lands

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once bool
	o.Cfg.OnIter = func(IterStats) {
		if !once {
			once = true
			close(started)
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := o.RunCtx(ctx, layout)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop within one iteration's worth of time")
	}
}
