package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mosaic"
	"mosaic/internal/ilt"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// Geometry shared by every workload: 1024 nm cells; tiled runs use 512 nm
// cores, whose halo-padded windows are again 1024 nm, so all workloads
// share one SOCS kernel set (a 2048 nm window's kernel set takes ~36 s to
// build and would not fit a run).
const (
	clipNM = 1024
	coreNM = 512
)

// sizing holds the knobs the tier-1 smoke test shrinks.
type sizing struct {
	PixelNM  float64
	ClipIter int // optimizer iterations of the clip workloads
	TileIter int // optimizer iterations per tile of the tiled workloads
	Bases    int // primed base layouts of service_mix
}

var fullSize = sizing{PixelNM: 8, ClipIter: 20, TileIter: 10, Bases: 5}

// env is what one run of one workload shares.
type env struct {
	seed   uint64
	size   sizing
	dir    string             // scratch root for on-disk stores
	tr     *tracer            // nil in the untraced run
	hooks  *hooks             // nil in the untraced run
	stages map[string]float64 // set-up stage seconds
}

func (e *env) stage(name string, since time.Time) { e.stages[name] += time.Since(since).Seconds() }

// opResult is what one operation reports. Latency covers only the calls a
// user of the system would wait for; Check holds the verification that
// needs more work than a comparison and runs after the measured phase.
type opResult struct {
	Class   string
	Key     string // the input, for latency statistics: a cell, or a job class and cell
	Latency time.Duration
	Score   float64
	PVB     float64
	EPE     int
	Tiles   int
	Check   func() error
}

// workload is one of the four benchmark workloads.
type workload interface {
	// Setup takes a cold process to the point where the first operation
	// may start; its wall time is setup_s.
	Setup() error
	// Warm runs whatever must happen once, untimed, before the measured
	// phase: one operation outside the schedule, so pools, FFT plans and
	// page faults of the first call are not measured.
	Warm() error
	// Op runs operation i of the seeded schedule on behalf of a client.
	Op(i, client int) (opResult, error)
	// Finish runs the checks that look at the run as a whole and releases
	// what Setup acquired.
	Finish() error
}

func newWorkload(name string, e *env) workload {
	switch name {
	case "clips_fast":
		return &clipWorkload{env: e, mode: mosaic.ModeFast}
	case "clips_exact":
		return &clipWorkload{env: e, mode: mosaic.ModeExact}
	case "layout_cold":
		return &coldWorkload{env: e}
	case "service_mix":
		return &serviceWorkload{env: e}
	}
	return nil
}

// newSetup builds a Setup whose grid covers fieldNM and builds the kernel
// set of every process corner for both that grid and, when tiled, the
// window grid the tile planner will derive from it.
func (e *env) newSetup(fieldNM float64, tiled bool) (*mosaic.Setup, error) {
	t0 := time.Now()
	ocfg := mosaic.DefaultOptics()
	ocfg.PixelNM = e.size.PixelNM
	ocfg.GridSize = int(fieldNM / e.size.PixelNM)
	s, err := mosaic.NewSetup(ocfg)
	if err != nil {
		return nil, err
	}
	e.stage("optics.newsetup_s", t0)
	t0 = time.Now()
	ws := s.Sim
	if tiled {
		if ws, err = windowSim(s); err != nil {
			return nil, err
		}
	}
	for _, c := range sim.ProcessCorners(s.Params.DefocusNM, s.Params.DoseDelta) {
		if _, err := ws.Kernels(c.DefocusNM); err != nil {
			return nil, err
		}
	}
	e.stage("optics.kernels_build_s", t0)
	return s, nil
}

// untimedSetup is newSetup off the run's stage clock, for the harness's
// own scoring and probing after set-up has been timed.
func (e *env) untimedSetup(fieldNM float64, tiled bool) (*mosaic.Setup, error) {
	scratch := env{size: e.size, stages: make(map[string]float64)}
	return scratch.newSetup(fieldNM, tiled)
}

// windowPlan is the tile plan OptimizeLayout derives for a 1024 nm layout
// sharded at coreNM.
func windowPlan(s *mosaic.Setup, layout *mosaic.Layout) (*tile.Plan, error) {
	return tile.NewPlan(layout, s.Sim.Cfg.PixelNM, coreNM, tile.DefaultHaloNM(s.Sim.Cfg))
}

// windowSim returns the simulator of one halo-padded window, sharing the
// setup's calibrated resist as OptimizeLayout's own does.
func windowSim(s *mosaic.Setup) (*sim.Simulator, error) {
	plan, err := windowPlan(s, &mosaic.Layout{Name: "window", SizeNM: clipNM})
	if err != nil {
		return nil, err
	}
	return sim.New(plan.WindowOptics(s.Sim.Cfg), s.Sim.Resist)
}

// fieldSum is the SHA-256 of a raster's float64 bit patterns.
func fieldSum(f *mosaic.Field) [32]byte {
	buf := make([]byte, 8*len(f.Data))
	for i, v := range f.Data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return sha256.Sum256(buf)
}

// checkQuality is the correctness check shared by all workloads: the mask
// has the expected size and scores better than submitting the target
// itself as the mask would.
func checkQuality(maskW, maskH, wantPx int, score, noOPC float64) error {
	if maskW != wantPx || maskH != wantPx {
		return fmt.Errorf("mask is %dx%d, want %dx%d", maskW, maskH, wantPx, wantPx)
	}
	if !(score < noOPC) {
		return fmt.Errorf("quality score %g is not below the no-OPC score %g", score, noOPC)
	}
	return nil
}

// eq22 is the contest score without its runtime term, so it repeats exactly.
func eq22(pvbNM2 float64, epe, shape int) float64 {
	return 4*pvbNM2 + 5000*float64(epe) + 10000*float64(shape)
}

func qualityScore(rep *mosaic.Report) float64 {
	return eq22(rep.PVBandNM2, rep.EPEViolations, rep.ShapeViolations)
}

// --- clips_fast / clips_exact -------------------------------------------

// clipWorkload optimizes and evaluates the ten B-suite clips untiled, in
// seeded order, with the paper's configuration for the mode.
type clipWorkload struct {
	*env
	mode    mosaic.Mode
	setup   *mosaic.Setup
	cfg     mosaic.Config
	names   []string
	layouts map[string]*mosaic.Layout
	noOPC   map[string]float64
	first   map[string][32]byte // mask bits of each clip's first run
}

func (w *clipWorkload) Setup() error {
	s, err := w.newSetup(clipNM, false)
	if err != nil {
		return err
	}
	w.setup = s
	w.cfg = mosaic.DefaultConfig(w.mode)
	w.cfg.MaxIter = w.size.ClipIter
	w.names = mosaic.BenchmarkNames()
	w.layouts = make(map[string]*mosaic.Layout)
	w.noOPC = make(map[string]float64)
	w.first = make(map[string][32]byte)
	for _, n := range w.names {
		l, err := mosaic.Benchmark(n)
		if err != nil {
			return err
		}
		w.layouts[n] = l
	}
	return nil
}

func (w *clipWorkload) Op(i, _ int) (opResult, error) {
	name := cellOrder(w.seed, "clips", w.names, i)
	layout := w.layouts[name]
	px := w.setup.Sim.Cfg.GridSize

	start := time.Now()
	root := w.tr.start("op", i, 0)
	sp := w.tr.start("mosaic.OptimizeLayout", i, root)
	res, err := w.optimize(layout, i, sp)
	w.tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	sp = w.tr.start("mosaic.Evaluate", i, root)
	rep, err := w.setup.Evaluate(res.Mask, layout, 0)
	w.tr.end(sp)
	w.tr.end(root)
	if err != nil {
		return opResult{}, err
	}
	out := opResult{Key: name, Latency: time.Since(start), Score: qualityScore(rep), PVB: rep.PVBandNM2, EPE: rep.EPEViolations}

	sum, maskW, maskH := fieldSum(res.MaskGray), res.Mask.W, res.Mask.H
	out.Check = func() error {
		if _, ok := w.noOPC[name]; !ok {
			ref, err := w.setup.Evaluate(layout.Rasterize(px, w.size.PixelNM), layout, 0)
			if err != nil {
				return err
			}
			w.noOPC[name] = qualityScore(ref)
			w.first[name] = sum
		}
		if sum != w.first[name] {
			return fmt.Errorf("%s: repeated run produced different mask bits", name)
		}
		return checkQuality(maskW, maskH, px, out.Score, w.noOPC[name])
	}
	return out, nil
}

// optimize runs the untiled optimizer, with the iteration hook in a
// traced run.
func (w *clipWorkload) optimize(layout *mosaic.Layout, op, parent int) (*mosaic.LayoutResult, error) {
	ctx := context.Background()
	if !w.hooks.active() {
		return w.setup.OptimizeLayout(ctx, w.cfg, layout, mosaic.TileOptions{})
	}
	var lr *mosaic.LayoutResult
	w.hooks.own(layout.Name, op, parent)
	_, err := w.hooks.observe(layout.Name, "ilt.run", w.cfg, func(cfg ilt.Config) (*ilt.Result, error) {
		var err error
		if lr, err = w.setup.OptimizeLayout(ctx, cfg, layout, mosaic.TileOptions{}); err != nil {
			return nil, err
		}
		return lr.Tiles[0], nil
	})
	return lr, err
}

func (w *clipWorkload) Warm() error {
	_, err := w.Op(0, 0)
	return err
}

func (w *clipWorkload) Finish() error { return nil }

// --- layout_cold ---------------------------------------------------------

// coldWorkload optimizes a stream of distinct seeded layouts, each sharded
// 2x2 into fresh on-disk cache, artifact and warm-start directories, so
// every tile misses and all three stores take their write path.
type coldWorkload struct {
	*env
	setup *mosaic.Setup
	cfg   mosaic.Config
	names []string
}

func (w *coldWorkload) Setup() error {
	s, err := w.newSetup(coreNM, true)
	if err != nil {
		return err
	}
	w.setup = s
	w.cfg = mosaic.DefaultConfig(mosaic.ModeFast)
	w.cfg.MaxIter = w.size.TileIter
	w.names = mosaic.BenchmarkNames()
	return nil
}

func (w *coldWorkload) Op(i, _ int) (opResult, error) {
	cell := placedCell("cold", cellOrder(w.seed, "cold", w.names, i), i/len(w.names))
	layout, err := cell.layout("op" + strconv.Itoa(i))
	if err != nil {
		return opResult{}, err
	}
	dir := filepath.Join(w.dir, "cold", strconv.Itoa(i))
	cache, err := mosaic.OpenTileCache(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return opResult{}, err
	}
	art, err := mosaic.OpenArtifactStore(filepath.Join(dir, "artifact"))
	if err != nil {
		return opResult{}, err
	}
	defer art.Close()
	lib, err := mosaic.OpenWarmStartLibrary(filepath.Join(dir, "warmstart"), 0, true)
	if err != nil {
		return opResult{}, err
	}
	opts := mosaic.TileOptions{TileNM: coreNM, Cache: cache, Artifact: art, WarmStart: lib}
	if w.hooks.active() {
		opts.Runner = timingRunner{w.hooks}
	}

	start := time.Now()
	root := w.tr.start("op", i, 0)
	sp := w.tr.start("mosaic.OptimizeLayout", i, root)
	if w.hooks.active() {
		w.hooks.own(layout.Name, i, sp)
	}
	res, err := w.setup.OptimizeLayout(context.Background(), w.cfg, layout, opts)
	w.tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	sp = w.tr.start("mosaic.EvaluateLayout", i, root)
	rep, err := w.setup.EvaluateLayout(res.Mask, layout, opts, 0)
	w.tr.end(sp)
	w.tr.end(root)
	if err != nil {
		return opResult{}, err
	}
	out := opResult{Key: cell.Cell, Latency: time.Since(start), Score: qualityScore(rep), PVB: rep.PVBandNM2, EPE: rep.EPEViolations, Tiles: len(res.Tiles)}

	// The check keeps only what it needs, not the result's rasters.
	fullPx := int(layout.SizeNM / w.size.PixelNM)
	prov, anchored, maskW, maskH := res.Provenance, res.Artifact != nil, res.Mask.W, res.Mask.H
	out.Check = func() error {
		for t, p := range prov {
			if p.Tier != "miss" && p.Tier != "empty" {
				return fmt.Errorf("tile %d was served from tier %q; a cold run must compute every tile", t, p.Tier)
			}
		}
		if !anchored {
			return fmt.Errorf("run anchored no artifact record")
		}
		ref, err := w.setup.EvaluateLayout(layout.Rasterize(fullPx, w.size.PixelNM), layout, mosaic.TileOptions{TileNM: coreNM}, 0)
		if err != nil {
			return err
		}
		return checkQuality(maskW, maskH, fullPx, out.Score, qualityScore(ref))
	}
	return out, nil
}

// warmIndex is an operation far outside any schedule a run can reach.
const warmIndex = 1 << 20

func (w *coldWorkload) Warm() error {
	_, err := w.Op(warmIndex, 0)
	return err
}

func (w *coldWorkload) Finish() error { return os.RemoveAll(filepath.Join(w.dir, "cold")) }
