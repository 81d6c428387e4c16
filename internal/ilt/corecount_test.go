package ilt

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// bitsOf digests a raster's IEEE-754 bit patterns: equal digests are equal
// bits, not equal values up to a tolerance.
func bitsOf(f *grid.Field) [sha256.Size]byte {
	return frame.Digest(func(w *frame.Writer) { w.Field(f) })
}

// TestBitsIndependentOfCoreCount: the request is the only input. Every
// number the forward model and the optimizer produce — the calibrated
// resist threshold, an aerial image, a gradient, the continuous mask of a
// whole run in both modes — has the same bits under any GOMAXPROCS, because
// every parallel loop writes one output per task and every sum is folded
// serially in index order. The grid is 256 px so the FFT row and column
// passes, the one place chunk boundaries still follow the core count, run
// chunked. The root package's test of the same name carries this through
// to the tile-cache key and the Merkle root. Not parallel: it sets
// GOMAXPROCS for the whole process, and restores it.
func TestBitsIndependentOfCoreCount(t *testing.T) {
	par.Capacity() // size the pool on the whole machine before GOMAXPROCS drops to 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	c := optics.Default()
	c.GridSize = 256
	c.PixelNM = 2
	layout := &geom.Layout{
		Name:   "core-count",
		SizeNM: 512,
		Polys: []geom.Polygon{
			geom.Rect{X: 160, Y: 144, W: 96, H: 224}.Polygon(),
			geom.Rect{X: 304, Y: 144, W: 48, H: 224}.Polygon(),
		},
	}
	target := layout.Rasterize(c.GridSize, c.PixelNM)

	type row struct {
		name string
		bits [sha256.Size]byte
	}
	measure := func() []row {
		s, err := sim.New(c, resist.Default())
		if err != nil {
			t.Fatal(err)
		}
		thr, err := s.CalibrateThreshold()
		if err != nil {
			t.Fatal(err)
		}
		s.Resist.Threshold = thr
		rows := []row{{"calibrated threshold", frame.Digest(func(w *frame.Writer) { w.F64(thr) })}}

		aerial, err := s.Aerial(target, sim.Nominal())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{"sim.Aerial", bitsOf(aerial)})

		for _, mode := range []Mode{ModeFast, ModeExact} {
			cfg := DefaultConfig(mode)
			cfg.MaxIter = 5
			o, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mode == ModeExact {
				models, err := o.buildModels()
				if err != nil {
					t.Fatal(err)
				}
				samples := layout.SamplePoints(metrics.DefaultParams().EPESampleNM)
				mask := maskFromParams(paramsFromMask(target, initEps))
				st := o.evalState(mask, models, target, samples, true)
				o.adjoint(st, target)
				rows = append(rows, row{"ilt gradient", bitsOf(o.gradient(st, mask.W))})
				st.release()
			}
			res, err := run(o, layout)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row{mode.String() + " gray mask", bitsOf(res.MaskGray)})
		}
		return rows
	}

	runtime.GOMAXPROCS(1)
	want := measure()
	for _, procs := range []int{2, 3, 5} {
		runtime.GOMAXPROCS(procs)
		for i, got := range measure() {
			if got.bits != want[i].bits {
				t.Errorf("%s: GOMAXPROCS=%d and GOMAXPROCS=1 disagree on the bits", got.name, procs)
			}
		}
	}
}
