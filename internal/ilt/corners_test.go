package ilt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// cornerRef is the serial path the corner list stands for, kept as its
// oracle: each corner printed whole by resist.Model.PrintSigmoidInto, its
// objective term folded by idObjective, epeObjective or pvbTerm, and the
// proxy band measured by metrics.PVBand over resist.Model.PrintInto's hard
// prints of the whole grid.
type cornerRef struct {
	z       []*grid.Field
	epeW    *grid.Field
	fTarget float64
	pvb     []float64
	bandNM2 float64
	epe     int
}

func referenceCorners(o *Optimizer, models []focusModel, in []*grid.Field, target *grid.Field, samples []geom.Sample) cornerRef {
	cfg, rm := o.Cfg, o.Sim.Resist
	corners := len(o.corners())
	ref := cornerRef{z: make([]*grid.Field, corners), pvb: make([]float64, corners)}
	printed := make([]*grid.Field, corners)
	for p, m := range models {
		for j, ci := range m.Members {
			ref.z[ci] = rm.PrintSigmoidInto(grid.NewLike(in[p]), in[p], m.doses[j])
			printed[ci] = rm.PrintInto(grid.NewLike(in[p]), in[p], m.doses[j])
		}
	}
	for ci, z := range ref.z {
		switch {
		case ci > 0:
			ref.pvb[ci] = o.pvbTerm(z, target)
		case cfg.Mode == ModeFast:
			ref.fTarget = o.idObjective(z, target)
		case cfg.Mode == ModeExact:
			ref.fTarget, ref.epeW = o.epeObjective(z, target, samples)
		}
	}
	_, ref.bandNM2 = metrics.PVBand(printed, o.Sim.Cfg.PixelNM)
	res := metrics.MeasureEPE(in[0], 1, rm.Threshold, o.Sim.Cfg.PixelNM, samples, metrics.DefaultParams())
	ref.epe = metrics.CountViolations(res)
	return ref
}

// cornerModels is buildModels without the kernel stacks, which the corner
// list does not read.
func cornerModels(o *Optimizer) []focusModel {
	corners := o.corners()
	var models []focusModel
	for _, g := range sim.FocusGroups(corners) {
		m := focusModel{FocusGroup: g}
		for _, ci := range g.Members {
			m.doses = append(m.doses, corners[ci].Dose)
		}
		models = append(models, m)
	}
	return models
}

// cornerInputs draws, on an n-px grid over the benchmark clip, a random
// aerial intensity per plane — spread over both sides of the resist
// threshold at every corner's dose — a random binary target, and the EPE
// samples of a few random rectangles.
func cornerInputs(rng *rand.Rand, n, planes int) (in []*grid.Field, target *grid.Field, samples []geom.Sample) {
	for p := 0; p < planes; p++ {
		f := grid.New(n, n)
		for i := range f.Data {
			f.Data[i] = 0.6 * rng.Float64()
		}
		in = append(in, f)
	}
	target = grid.New(n, n)
	for i := range target.Data {
		if rng.Intn(2) == 1 {
			target.Data[i] = 1
		}
	}
	layout := &geom.Layout{SizeNM: bench.ClipNM}
	for r := 0; r < 3; r++ {
		x, y := 64+rng.Float64()*640, 64+rng.Float64()*640
		layout.Polys = append(layout.Polys, geom.Rect{X: x, Y: y, W: 48 + rng.Float64()*256, H: 48 + rng.Float64()*256}.Polygon())
	}
	return in, target, layout.SamplePoints(metrics.DefaultParams().EPESampleNM)
}

// runCorners runs evalState's corner list on the given intensities, without
// the transforms around it.
func runCorners(o *Optimizer, models []focusModel, in []*grid.Field, target *grid.Field, samples []geom.Sample, adjoint bool) *iterState {
	st := &iterState{planes: make([]focusState, len(models))}
	for p, m := range models {
		st.planes[p] = focusState{model: m, i: in[p].Clone()}
	}
	o.cornerList(st, target, samples, adjoint)
	return st
}

// sameBits reports the first index where a and b differ in their bits, or
// -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkCorners holds st, the corner list's state, to the oracle bit for
// bit.
func checkCorners(t *testing.T, o *Optimizer, st *iterState, ref cornerRef, adjoint bool) {
	t.Helper()
	for ci, z := range ref.z {
		if i := sameBits(st.z[ci].Data, z.Data); i >= 0 {
			t.Fatalf("corner %d: Z pixel %d is %v, the per-corner print %v", ci, i, st.z[ci].Data[i], z.Data[i])
		}
	}
	if math.Float64bits(st.fTarget) != math.Float64bits(ref.fTarget) {
		t.Fatalf("design-target term %v, the per-corner fold %v", st.fTarget, ref.fTarget)
	}
	for ci, f := range ref.pvb {
		if math.Float64bits(st.pvb[ci]) != math.Float64bits(f) {
			t.Fatalf("corner %d: F_pvb slot %v, the per-corner fold %v", ci, st.pvb[ci], f)
		}
	}
	if ref.epeW != nil {
		if i := sameBits(st.epeW.Data, ref.epeW.Data); i >= 0 {
			t.Fatalf("EPE weight pixel %d is %v, the per-corner map %v", i, st.epeW.Data[i], ref.epeW.Data[i])
		}
	}
	if !adjoint {
		return
	}
	epe, area := o.proxyMetrics(st)
	if math.Float64bits(area) != math.Float64bits(ref.bandNM2) || epe != ref.epe {
		t.Fatalf("proxy band %v nm² and %d violations, metrics.PVBand %v and MeasureEPE %d", area, epe, ref.bandNM2, ref.epe)
	}
}

// cornerOptimizer is an optimizer at n px over the benchmark clip with the
// default resist, for the corner list alone: no kernels are built.
func cornerOptimizer(n int, cfg Config) *Optimizer {
	c := optics.Default()
	c.GridSize = n
	c.PixelNM = bench.ClipNM / float64(n)
	return &Optimizer{Sim: &sim.Simulator{Cfg: c, Resist: resist.Default()}, Cfg: cfg}
}

// TestCornerListMatchesReference holds the corner list, with its banded
// proxy band count, to the serial path: every Z_c, F_id or F_epe, the EPE
// weight map, every F_pvb slot, the proxy band and the proxy EPE count are
// bit-equal on random intensities and targets, in both modes, with and
// without the process-window term, on both corner partitions — the paper's
// two planes and the one plane of three corners that zero defocus gives —
// and under GOMAXPROCS 1, 2 and 3. Not parallel: it sets GOMAXPROCS for the
// whole process, and restores it.
func TestCornerListMatchesReference(t *testing.T) {
	par.Capacity() // size the pool on the whole machine before GOMAXPROCS drops to 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{64, 128, 512} {
		for _, mode := range []Mode{ModeFast, ModeExact} {
			for _, beta := range []float64{0, 0.35} {
				for _, defocus := range []float64{25, 0} {
					cfg := DefaultConfig(mode)
					cfg.Beta, cfg.DefocusNM = beta, defocus
					o := cornerOptimizer(n, cfg)
					models := cornerModels(o)
					if want := map[float64]int{25: 2, 0: 1}[defocus]; len(models) != want {
						t.Fatalf("%g nm defocus: %d planes, want %d", defocus, len(models), want)
					}
					in, target, samples := cornerInputs(rng, n, len(models))
					ref := referenceCorners(o, models, in, target, samples)
					for _, procs := range []int{1, 2, 3} {
						runtime.GOMAXPROCS(procs)
						for _, adjoint := range []bool{true, false} {
							t.Logf("%d px, %v, beta %g, %d planes, GOMAXPROCS %d, adjoint %v", n, mode, beta, len(models), procs, adjoint)
							st := runCorners(o, models, in, target, samples, adjoint)
							checkCorners(t, o, st, ref, adjoint)
							st.release()
						}
					}
				}
			}
		}
	}
}

// FuzzCornerList is TestCornerListMatchesReference on fuzzed grids of at
// most 64 px, doses, beta, gamma and field seeds. A config Validate refuses
// is skipped.
func FuzzCornerList(f *testing.F) {
	f.Add(uint8(63), false, false, 0.35, 4.0, 0.02, int64(1))
	f.Add(uint8(31), true, false, 0.35, 4.0, 0.02, int64(2))
	f.Add(uint8(6), false, true, 0.0, 6.0, 0.1, int64(3))
	f.Add(uint8(0), true, true, 100.0, 2.0, 0.5, int64(4))
	f.Fuzz(func(t *testing.T, size uint8, exact, onePlane bool, beta, gamma, doseDelta float64, seed int64) {
		n := 1 + int(size)%64
		cfg := DefaultConfig(ModeFast)
		if exact {
			cfg = DefaultConfig(ModeExact)
		}
		cfg.Beta, cfg.Gamma, cfg.DoseDelta = beta, gamma, doseDelta
		if onePlane {
			cfg.DefocusNM = 0
		}
		if cfg.Validate(n, bench.ClipNM/float64(n)) != nil {
			return
		}
		o := cornerOptimizer(n, cfg)
		models := cornerModels(o)
		in, target, samples := cornerInputs(rand.New(rand.NewSource(seed)), n, len(models))
		ref := referenceCorners(o, models, in, target, samples)
		st := runCorners(o, models, in, target, samples, true)
		checkCorners(t, o, st, ref, true)
		st.release()
	})
}

// TestBandsCoverTheGrid: the pixelBands row bands of an n x n grid are
// whole rows, in order, and cover every pixel once, also when n is not a
// multiple of pixelBands or smaller than it.
func TestBandsCoverTheGrid(t *testing.T) {
	for n := 1; n <= 130; n++ {
		next := 0
		for b := 0; b < pixelBands; b++ {
			lo, hi := band(b, n)
			if lo != next || hi < lo || hi%n != 0 {
				t.Fatalf("%d px: band %d is [%d, %d) after %d", n, b, lo, hi, next)
			}
			next = hi
		}
		if next != n*n {
			t.Fatalf("%d px: the bands end at %d of %d pixels", n, next, n*n)
		}
	}
}
