package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"mosaic"
	"mosaic/internal/geom"
)

// The generator turns --seed into inputs; the program under test sees only
// the layouts and job specs produced here. Every draw comes from a PCG
// stream keyed by (seed, purpose, index), so op i has the same input no
// matter how many ops ran before it or which client picked it up.
//
// The seed decides the order of operations: which cell, which job class
// comes when, and so what runs next to what. Where a cell is placed the
// k-th time it comes up is drawn from placementSeed instead, the same for
// every run. Every whole block of a schedule therefore holds the same
// operations under every seed, in a different order, which makes the
// quality metrics (taken over whole blocks) repeat exactly from seed to
// seed, and lets one offline pass over the placements show that none of
// them fails a correctness check.
const placementSeed = 1

func stream(seed uint64, purpose string, index int) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h+uint64(index)))
}

// jitterStepsNM are the per-axis placement offsets a cell can take. All
// keep the B-suite features (which stay inside [192, 832] nm) in the clip.
var jitterStepsNM = []float64{-32, -24, -16, -8, 8, 16, 24, 32}

// cellSpec places one B-suite cell: a symmetry of the square (transpose,
// then mirror in x, then mirror in y, about the clip centre) followed by a
// translation.
type cellSpec struct {
	Cell      string
	Transform int // bit 0 transpose, bit 1 mirror x, bit 2 mirror y
	DX, DY    float64
}

func (c cellSpec) String() string {
	return fmt.Sprintf("%s/t%d/%+g%+g", c.Cell, c.Transform, c.DX, c.DY)
}

// layout renders the placed cell as a clip named name.
func (c cellSpec) layout(name string) (*mosaic.Layout, error) {
	base, err := mosaic.Benchmark(c.Cell)
	if err != nil {
		return nil, err
	}
	out := &mosaic.Layout{Name: name, SizeNM: base.SizeNM}
	mirrors := 0
	for b := 0; b < 3; b++ {
		mirrors += c.Transform >> b & 1
	}
	for _, p := range base.Polys {
		q := make(mosaic.Polygon, len(p))
		for i, v := range p {
			x, y := v.X, v.Y
			if c.Transform&1 != 0 {
				x, y = y, x
			}
			if c.Transform&2 != 0 {
				x = base.SizeNM - x
			}
			if c.Transform&4 != 0 {
				y = base.SizeNM - y
			}
			q[i] = mosaic.Point{X: x + c.DX, Y: y + c.DY}
		}
		if mirrors%2 == 1 {
			// An odd number of reflections flips the ring orientation;
			// restore counter-clockwise so inward normals stay inward.
			for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
				q[i], q[j] = q[j], q[i]
			}
		}
		out.Polys = append(out.Polys, q)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("generated layout %s (%s): %w", name, c, err)
	}
	return out, nil
}

// layoutText renders a layout in the LoadLayout text form, the inline
// `layout` field of a job spec.
func layoutText(l *mosaic.Layout) string {
	var sb strings.Builder
	geom.Write(&sb, l) // a strings.Builder never fails a write
	return sb.String()
}

// cellOrder returns the cell for position i of a schedule that walks the
// suite in blocks of len(cells), each block a fresh seeded permutation, so
// any whole number of blocks weighs every cell equally.
func cellOrder(seed uint64, purpose string, cells []string, i int) string {
	block := i / len(cells)
	perm := stream(seed, purpose, block).Perm(len(cells))
	return cells[perm[i%len(cells)]]
}

// placedCell draws the transform and jitter of a cell's k-th appearance.
func placedCell(purpose, cell string, k int) cellSpec {
	r := stream(placementSeed, purpose+"/"+cell, k)
	return cellSpec{
		Cell:      cell,
		Transform: r.IntN(8),
		DX:        jitterStepsNM[r.IntN(len(jitterStepsNM))],
		DY:        jitterStepsNM[r.IntN(len(jitterStepsNM))],
	}
}

// Job classes of the service schedule.
const (
	classHit    = "hit"    // byte-identical resubmit of a primed base layout
	classSeeded = "seeded" // a base layout moved by a fresh jitter: cache miss, warm-start hit
	classNovel  = "novel"  // a cell the server has never seen
)

// serviceJob is one entry of the service schedule.
type serviceJob struct {
	Class string
	Base  int // index into serviceSchedule.Bases for hit and seeded jobs
	Cell  cellSpec
}

// serviceSchedule is the seeded traffic of service_mix. Odd-numbered cells
// are the primed bases, even-numbered cells the novel population; a block
// of 5*len(bases) jobs holds three resubmits and one jittered copy of every
// base and one placement of every novel cell, i.e. a 60/20/20 mix that
// weighs all ten cells equally in every block. The seed orders the jobs
// within each block.
type serviceSchedule struct {
	seed  uint64
	Bases []cellSpec
	novel []string
}

func newServiceSchedule(seed uint64, nBases int) *serviceSchedule {
	s := &serviceSchedule{seed: seed}
	names := mosaic.BenchmarkNames()
	for i, n := range names {
		if i%2 == 0 && len(s.Bases) < nBases {
			s.Bases = append(s.Bases, placedCell("service/base", n, 0))
		} else if i%2 == 1 && len(s.novel) < nBases {
			s.novel = append(s.novel, n)
		}
	}
	return s
}

func (s *serviceSchedule) blockLen() int { return 5 * len(s.Bases) }

// jitter returns the k-th step of a per-cell walk over all 64
// (dx, dy) pairs, skipping the pair of `not`, so within 63 blocks no
// placement of a cell repeats and none coincides with `not`.
func (s *serviceSchedule) jitter(purpose string, cell, k int, not cellSpec) (dx, dy float64) {
	n := len(jitterStepsNM)
	k %= n*n - 1
	for _, o := range stream(placementSeed, purpose, cell).Perm(n * n) {
		dx, dy = jitterStepsNM[o/n], jitterStepsNM[o%n]
		if dx == not.DX && dy == not.DY {
			continue
		}
		if k == 0 {
			break
		}
		k--
	}
	return dx, dy
}

// job returns entry i of the schedule.
func (s *serviceSchedule) job(i int) serviceJob {
	nb := len(s.Bases)
	block, pos := i/s.blockLen(), i%s.blockLen()
	slot := stream(s.seed, "service/order", block).Perm(s.blockLen())[pos]
	switch {
	case slot < 3*nb:
		b := slot % nb
		return serviceJob{Class: classHit, Base: b, Cell: s.Bases[b]}
	case slot < 4*nb:
		b := slot - 3*nb
		c := s.Bases[b]
		// The base's own placement is skipped: a jittered copy is never
		// byte-identical to its base.
		c.DX, c.DY = s.jitter("service/jitter", b, block, c)
		return serviceJob{Class: classSeeded, Base: b, Cell: c}
	default:
		n := slot - 4*nb
		c := cellSpec{Cell: s.novel[n], Transform: stream(placementSeed, "service/novel", n).IntN(8)}
		c.DX, c.DY = s.jitter("service/novel/jitter", n, block, cellSpec{})
		return serviceJob{Class: classNovel, Cell: c}
	}
}
