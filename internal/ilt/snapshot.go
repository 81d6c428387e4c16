package ilt

import (
	"fmt"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
)

// Snapshot is a checkpoint of the descent loop between two iterations: the
// unconstrained pixel variables P (the mask is recomputed as sig(theta_M*P)
// on resume), the step/jump schedule, the ObjTol plateau counter, the
// heavy-ball velocity, and the best-iterate bookkeeping of Alg. 1 line 9.
// The optimizer is RNG-free by construction, so resuming from a snapshot
// replays the remaining iterations bit-identically to an uninterrupted run.
//
// Snapshots are emitted through Config.OnSnapshot after every completed
// iteration and consumed through Config.Resume. All fields are deep copies;
// holding one costs roughly three grids of memory.
type Snapshot struct {
	// Iter is the number of completed iterations; a resumed run continues
	// at this iteration index.
	Iter int

	P        *grid.Field // unconstrained pixel variables (Eq. 8 logits)
	Velocity *grid.Field // heavy-ball state; nil when momentum is off or unused so far

	Step  float64 // current step size after decay/jumps
	Jumps int     // jump-technique budget remaining
	Stall int     // consecutive iterations without an ObjTol-sized improvement

	// Seeded is Result.Seeded of the run: it started from Config.SeedMask.
	Seeded bool

	// Best-iterate state (Alg. 1 line 9).
	BestObjective float64     // lowest Eq. 7 proxy score seen
	BestSurrogate float64     // surrogate F at the best iterate (tie-break)
	BestGray      *grid.Field // continuous mask of the best iterate; nil before the first iteration completes

	History []IterStats // per-iteration records up to Iter
}

// snapshot deep-copies the loop state into a Snapshot.
func snapshot(iter int, p, velocity *grid.Field, step float64, jumps, stall int, best *Result, bestSurrogate float64) *Snapshot {
	s := &Snapshot{
		Iter:          iter,
		P:             p.Clone(),
		Step:          step,
		Jumps:         jumps,
		Stall:         stall,
		Seeded:        best.Seeded,
		BestObjective: best.Objective,
		BestSurrogate: bestSurrogate,
		History:       append([]IterStats(nil), best.History...),
	}
	if velocity != nil {
		s.Velocity = velocity.Clone()
	}
	if best.MaskGray != nil {
		s.BestGray = best.MaskGray.Clone()
	}
	return s
}

// validate checks a resume snapshot against the simulator grid.
func (s *Snapshot) validate(n int) error {
	switch {
	case s.P == nil:
		return fmt.Errorf("ilt: resume snapshot has no P field")
	case s.P.W != n || s.P.H != n:
		return fmt.Errorf("ilt: resume snapshot P is %dx%d but the simulator grid is %dx%d", s.P.W, s.P.H, n, n)
	case s.Velocity != nil && (s.Velocity.W != n || s.Velocity.H != n):
		return fmt.Errorf("ilt: resume snapshot velocity is %dx%d but the simulator grid is %dx%d", s.Velocity.W, s.Velocity.H, n, n)
	case s.BestGray != nil && (s.BestGray.W != n || s.BestGray.H != n):
		return fmt.Errorf("ilt: resume snapshot best mask is %dx%d but the simulator grid is %dx%d", s.BestGray.W, s.BestGray.H, n, n)
	case s.Iter < 0:
		return fmt.Errorf("ilt: resume snapshot has negative iteration %d", s.Iter)
	}
	return nil
}

// Snapshot file format: one MSNP frame whose payload is the version, the
// scalar state, the three rasters, then the per-iteration history. Floats
// travel as IEEE-754 bit patterns, so the bit-identical resume guarantee
// survives serialization.
const (
	snapMagic   uint32 = 0x504e534d // "MSNP"
	snapVersion        = 3          // 2 lacked Stall and Seeded

	// histStatBytes is the encoded size of one IterStats record.
	histStatBytes = 11 * 8
)

// scalars lists the snapshot's fixed-size fields in payload order.
func (s *Snapshot) scalars() []any {
	return []any{&s.Iter, &s.Step, &s.Jumps, &s.Stall, &s.Seeded, &s.BestObjective, &s.BestSurrogate}
}

// scalars lists one history record's fields in payload order.
func (st *IterStats) scalars() []any {
	return []any{&st.Iter, &st.Objective, &st.FTarget, &st.FPvb, &st.GradRMS,
		&st.ProxyEPE, &st.ProxyPVBandNM2, &st.ProxyScore,
		&st.EPEViolations, &st.PVBandNM2, &st.Score}
}

// MarshalBinary encodes the snapshot for storage (checkpoint files, the
// job-service drain path).
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	n := 128 + histStatBytes*len(s.History)
	if s.P != nil {
		n += 3 * 8 * len(s.P.Data) // P, velocity and best mask share one size
	}
	w := frame.NewFrame(n)
	w.I64(snapVersion)
	w.Put(s.scalars()...)
	w.Field(s.P)
	w.Field(s.Velocity)
	w.Field(s.BestGray)
	w.I64(int64(len(s.History)))
	for i := range s.History {
		w.Put(s.History[i].scalars()...)
	}
	return w.Seal(snapMagic), nil
}

// UnmarshalBinary decodes a snapshot written by MarshalBinary, rejecting
// corrupt, truncated or other-version files.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	payload, err := frame.Decode(snapMagic, data)
	if err != nil {
		return fmt.Errorf("ilt: not a snapshot: %w", err)
	}
	r := frame.NewReader(payload)
	r.Version(snapVersion)
	r.Get(s.scalars()...)
	s.P = r.Field()
	s.Velocity = r.Field()
	s.BestGray = r.Field()
	s.History = make([]IterStats, r.Count(histStatBytes))
	for i := range s.History {
		r.Get(s.History[i].scalars()...)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("ilt: decoding snapshot: %w", err)
	}
	return nil
}
