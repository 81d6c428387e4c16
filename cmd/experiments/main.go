// Command experiments regenerates every table and figure of the MOSAIC
// paper's evaluation (Sec. 4) against the built-in benchmark suite:
//
//	Fig. 1  forward lithography pipeline images
//	Fig. 2  sigmoid resist curve (theta_Z = 50)
//	Fig. 3  EPE sample placement and measured EPE
//	Fig. 4  PV band construction from the process corners
//	Table 2 EPE / PV band / score for the baselines and both MOSAIC modes
//	Table 3 runtime comparison
//	Fig. 5  target / OPC mask / nominal image / PV band for B4 and B6
//	Fig. 6  convergence of EPE violations, PV band and score for B4 and B6
//
// plus the ablation studies listed in DESIGN.md and the process-window
// weight sweep (-ablations). Table 2 is stamped with the numeric generation
// (cache.DigestVersion) it was made under, which the package's tests read
// to judge a fresh run against the archive.
//
// Usage:
//
//	experiments -out results -ablations      # the archive (make paper)
//	experiments -out results -grid 256       # faster, coarser
//	experiments -only table2,fig6            # subset
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/cache"
	"mosaic/internal/cli"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/render"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

type harness struct {
	setup *mosaic.Setup
	out   string
	grid  int
	px    float64
	runs  []*mosaic.RunResult // Table 2/3 results, reused by Fig. 5
}

// paperGrid is the archive's grid: 512 px over the 1024 nm clip, 2 nm/px.
const paperGrid = 512

// newHarness calibrates the optics for a gridSize-pixel grid over the
// 1024 nm clip and writes into out.
func newHarness(out string, gridSize int) (*harness, error) {
	cfg := mosaic.DefaultOptics()
	cfg.GridSize = gridSize
	cfg.PixelNM = 1024.0 / float64(gridSize)
	setup, err := mosaic.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &harness{setup: setup, out: out, grid: gridSize, px: cfg.PixelNM}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	out := flag.String("out", "results", "output directory")
	gridSize := flag.Int("grid", paperGrid, "simulation grid size (power of two)")
	only := flag.String("only", "", "comma-separated subset: fig1,fig2,fig3,fig4,table2,table3,fig5,fig6")
	ablations := flag.Bool("ablations", false, "also run the DESIGN.md ablation studies and the process-window weight sweep")
	obsFlags := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	obsCleanup, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()

	h, err := newHarness(*out, *gridSize)
	if err != nil {
		log.Fatal(err)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(name string, fn func() error) {
		if len(want) > 0 && !want[name] {
			return
		}
		start := time.Now()
		log.Printf("running %s...", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		log.Printf("%s done in %.1fs", name, time.Since(start).Seconds())
	}

	run("fig2", h.fig2)
	run("fig1", h.fig1)
	run("fig3", h.fig3)
	run("fig4", h.fig4)
	run("table2", h.tables23) // fills h.runs; table3 shares the data
	run("fig5", h.fig5)
	run("fig6", h.fig6)
	if *ablations {
		run("ablations", h.ablations)
		run("ablation_pw", h.ablationPW)
	}
	log.Printf("all outputs in %s", *out)
}

func (h *harness) path(elem ...string) string {
	return filepath.Join(append([]string{h.out}, elem...)...)
}

func (h *harness) writeCSV(name string, header string, rows []string) error {
	f, err := os.Create(h.path(name))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, header)
	for _, r := range rows {
		fmt.Fprintln(f, r)
	}
	return f.Close()
}

// fig1: the forward pipeline on B1 without OPC: mask, aerial image,
// printed image.
func (h *harness) fig1() error {
	layout, err := mosaic.Benchmark("B1")
	if err != nil {
		return err
	}
	mask := layout.Rasterize(h.grid, h.px)
	aerial, printed, err := h.setup.Sim.Simulate(mask, sim.Nominal())
	if err != nil {
		return err
	}
	dir := "fig1"
	if err := render.SaveField(h.path(dir, "mask.png"), mask); err != nil {
		return err
	}
	if err := render.SaveField(h.path(dir, "aerial.png"), aerial); err != nil {
		return err
	}
	return render.SaveField(h.path(dir, "printed.png"), printed)
}

// fig2: the sigmoid resist curve of Eq. 4 with theta_Z = 50, both at the
// paper's illustrative th_r = 0.5 and at the calibrated threshold.
func (h *harness) fig2() error {
	rmPaper := resist.Model{Threshold: 0.5, ThetaZ: 50}
	rmCal := h.setup.Sim.Resist
	var rows []string
	for i := 0; i <= 200; i++ {
		x := float64(i) / 200
		rows = append(rows, fmt.Sprintf("%g,%g,%g", x, rmPaper.Sigmoid(x), rmCal.Sigmoid(x)))
	}
	return h.writeCSV("fig2_sigmoid.csv", "intensity,sigmoid_thr0.5,sigmoid_calibrated", rows)
}

// fig3: EPE sample placement (HS/VS split) and the measured EPE at each
// sample for the no-OPC print of B5.
func (h *harness) fig3() error {
	layout, err := mosaic.Benchmark("B5")
	if err != nil {
		return err
	}
	mask := layout.Rasterize(h.grid, h.px)
	aerial, err := h.setup.Sim.Aerial(mask, sim.Nominal())
	if err != nil {
		return err
	}
	params := h.setup.Params
	samples := layout.SamplePoints(params.EPESampleNM)
	res := metrics.MeasureEPE(aerial, 1, h.setup.Sim.Resist.Threshold, h.px, samples, params)
	var rows []string
	for _, r := range res {
		set := "VS"
		if r.Sample.Horizontal {
			set = "HS"
		}
		rows = append(rows, fmt.Sprintf("%g,%g,%s,%g,%v",
			r.Sample.Pt.X, r.Sample.Pt.Y, set, r.SignedNM, r.Violation))
	}
	return h.writeCSV("fig3_epe_samples.csv", "x_nm,y_nm,set,signed_epe_nm,violation", rows)
}

// fig4: printed images at each process corner plus the resulting PV band
// for B4 (no OPC, as a pure demonstration of the construction).
func (h *harness) fig4() error {
	layout, err := mosaic.Benchmark("B4")
	if err != nil {
		return err
	}
	mask := layout.Rasterize(h.grid, h.px)
	corners := sim.ProcessCorners(h.setup.Params.DefocusNM, h.setup.Params.DoseDelta)
	printed := make([]*grid.Field, len(corners))
	for _, g := range sim.FocusGroups(corners) {
		aerial, err := h.setup.Sim.Aerial(mask, g.Lead)
		if err != nil {
			return err
		}
		for _, i := range g.Members {
			c := corners[i]
			printed[i] = h.setup.Sim.PrintHard(aerial, c)
			if err := render.SaveField(h.path("fig4", "printed_"+c.Name+".png"), printed[i]); err != nil {
				return err
			}
		}
	}
	band, _ := metrics.PVBand(printed, h.px)
	return render.SaveField(h.path("fig4", "pvband.png"), band)
}

// tables23 runs the full method x testcase matrix and writes Table 2
// (quality), the numeric generation it was made under, and Table 3
// (runtime).
func (h *harness) tables23() error {
	layouts, err := mosaic.Benchmarks()
	if err != nil {
		return err
	}
	methods := mosaic.Methods()
	for _, layout := range layouts {
		for _, m := range methods {
			rr, err := h.setup.Run(m, layout)
			if err != nil {
				return err
			}
			h.runs = append(h.runs, rr)
			log.Printf("  %-12s %-4s EPE=%3d PVB=%7.0f shape=%d score=%8.0f (%.1fs)",
				rr.Method, rr.Testcase, rr.Report.EPEViolations, rr.Report.PVBandNM2,
				rr.Report.ShapeViolations, rr.Report.Score, rr.RuntimeSec)
		}
	}
	if err := h.writeTable2(layouts, methods); err != nil {
		return err
	}
	if err := os.WriteFile(h.path(digestVersionFile), []byte(fmt.Sprintln(cache.DigestVersion)), 0o644); err != nil {
		return err
	}
	return h.writeTable3(layouts, methods)
}

// digestVersionFile holds the cache.DigestVersion table2.csv was made
// under: within one generation a fresh run must reproduce every cell.
const digestVersionFile = "digest_version.txt"

func (h *harness) find(method, testcase string) *mosaic.RunResult {
	for _, r := range h.runs {
		if r.Method == method && r.Testcase == testcase {
			return r
		}
	}
	return nil
}

func (h *harness) writeTable2(layouts []*mosaic.Layout, methods []mosaic.Method) error {
	f, err := os.Create(h.path("table2.md"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# Table 2: comparison of OPC approaches (#EPE, PV band, score)")
	fmt.Fprintln(f)
	fmt.Fprint(f, "| Testcase | Area (nm^2) |")
	for _, m := range methods {
		fmt.Fprintf(f, " %s #EPE | PVB | Score |", m.Name())
	}
	fmt.Fprintln(f)
	fmt.Fprint(f, "|---|---|")
	for range methods {
		fmt.Fprint(f, "---|---|---|")
	}
	fmt.Fprintln(f)
	totals := make([]float64, len(methods))
	var rows []string
	for _, l := range layouts {
		fmt.Fprintf(f, "| %s | %.0f |", l.Name, l.TotalArea())
		for mi, m := range methods {
			r := h.find(m.Name(), l.Name)
			fmt.Fprintf(f, " %d | %.0f | %.0f |",
				r.Report.EPEViolations, r.Report.PVBandNM2, r.Report.Score)
			totals[mi] += r.Report.Score
			rows = append(rows, fmt.Sprintf("%s,%s,%d,%g,%d,%g,%g",
				l.Name, m.Name(), r.Report.EPEViolations, r.Report.PVBandNM2,
				r.Report.ShapeViolations, r.RuntimeSec, r.Report.Score))
		}
		fmt.Fprintln(f)
	}
	fmt.Fprint(f, "| **Total score** | |")
	for _, tot := range totals {
		fmt.Fprintf(f, "  |  | **%.0f** |", tot)
	}
	fmt.Fprintln(f)
	fmt.Fprint(f, "| **Ratio vs best baseline** | |")
	best := totals[0]
	for _, tot := range totals[:3] {
		if tot < best {
			best = tot
		}
	}
	for _, tot := range totals {
		fmt.Fprintf(f, "  |  | %.3f |", tot/best)
	}
	fmt.Fprintln(f)
	return h.writeCSV("table2.csv",
		"testcase,method,epe_violations,pvband_nm2,shape_violations,runtime_sec,score", rows)
}

func (h *harness) writeTable3(layouts []*mosaic.Layout, methods []mosaic.Method) error {
	f, err := os.Create(h.path("table3.md"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# Table 3: runtime comparison (seconds)")
	fmt.Fprintln(f)
	fmt.Fprint(f, "| Testcase |")
	for _, m := range methods {
		fmt.Fprintf(f, " %s |", m.Name())
	}
	fmt.Fprintln(f)
	fmt.Fprint(f, "|---|")
	for range methods {
		fmt.Fprint(f, "---|")
	}
	fmt.Fprintln(f)
	avgs := make([]float64, len(methods))
	for _, l := range layouts {
		fmt.Fprintf(f, "| %s |", l.Name)
		for mi, m := range methods {
			r := h.find(m.Name(), l.Name)
			fmt.Fprintf(f, " %.1f |", r.RuntimeSec)
			avgs[mi] += r.RuntimeSec
		}
		fmt.Fprintln(f)
	}
	fmt.Fprint(f, "| **Average** |")
	for _, a := range avgs {
		fmt.Fprintf(f, " **%.1f** |", a/float64(len(layouts)))
	}
	fmt.Fprintln(f)
	return nil
}

// fig5: target / OPC mask / nominal printed image / PV band for B4 and B6
// with MOSAIC_exact, the paper's showcase figure.
func (h *harness) fig5() error {
	for _, name := range []string{"B4", "B6"} {
		layout, err := mosaic.Benchmark(name)
		if err != nil {
			return err
		}
		// Reuse the Table 2 run when it happened in this process.
		var mask *grid.Field
		var rep *mosaic.Report
		if rr := h.find("MOSAIC_exact", name); rr != nil {
			mask, rep = rr.Mask, rr.Report
		} else {
			res, err := h.setup.Optimize(mosaic.DefaultConfig(mosaic.ModeExact), layout)
			if err != nil {
				return err
			}
			mask = res.Mask
			if rep, err = h.setup.Evaluate(mask, layout, res.RuntimeSec); err != nil {
				return err
			}
		}
		target := layout.Rasterize(h.grid, h.px)
		dir := "fig5_" + name
		if err := render.SaveField(h.path(dir, "target.png"), target); err != nil {
			return err
		}
		if err := render.SaveField(h.path(dir, "opc_mask.png"), mask); err != nil {
			return err
		}
		if err := render.SaveField(h.path(dir, "nominal_image.png"), rep.PrintedNominal); err != nil {
			return err
		}
		if err := render.SaveField(h.path(dir, "pvband.png"), rep.PVBand); err != nil {
			return err
		}
		if err := render.SavePNG(h.path(dir, "overlay.png"),
			render.Overlay(target, rep.PrintedNominal, rep.PVBand)); err != nil {
			return err
		}
	}
	return nil
}

// fig6: convergence of the gradient descent with MOSAIC_exact on B4 and
// B6: EPE violations, PV band and score per iteration. Two variants per
// clip: the default SRAF-seeded run, and a target-seeded run
// ("_noseed") whose initial mask is barely printable — the regime the
// paper's Fig. 6 plots ("in the first few iterations, the mask patterns
// are nearly non-printable").
func (h *harness) fig6() error {
	for _, name := range []string{"B4", "B6"} {
		layout, err := mosaic.Benchmark(name)
		if err != nil {
			return err
		}
		for _, v := range []struct {
			suffix string
			sraf   bool
		}{{"", true}, {"_noseed", false}} {
			cfg := mosaic.DefaultConfig(mosaic.ModeExact)
			cfg.TrackMetrics = true
			cfg.SRAFInit = v.sraf
			res, err := h.setup.Optimize(cfg, layout)
			if err != nil {
				return err
			}
			var rows []string
			for _, st := range res.History {
				rows = append(rows, fmt.Sprintf("%d,%d,%g,%g,%g,%g",
					st.Iter, st.EPEViolations, st.PVBandNM2, st.Score, st.Objective, st.GradRMS))
			}
			if err := h.writeCSV("fig6_"+name+v.suffix+".csv",
				"iter,epe_violations,pvband_nm2,score,objective,grad_rms", rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// ablations runs the DESIGN.md ablation studies on B4.
func (h *harness) ablations() error {
	layout, err := mosaic.Benchmark("B4")
	if err != nil {
		return err
	}
	type variant struct {
		name string
		cfg  mosaic.Config
	}
	var vs []variant
	add := func(name string, mutate func(*mosaic.Config)) {
		cfg := mosaic.DefaultConfig(mosaic.ModeFast)
		mutate(&cfg)
		vs = append(vs, variant{name, cfg})
	}
	add("baseline_fast", func(*mosaic.Config) {})
	add("gamma2", func(c *mosaic.Config) { c.Gamma = 2 })
	add("gamma6", func(c *mosaic.Config) { c.Gamma = 6 })
	add("kernels_combined_eq21", func(c *mosaic.Config) { c.GradKernels = 0 })
	add("kernels_full", func(c *mosaic.Config) { c.GradKernels = 1 << 30 })
	add("no_pvb_term", func(c *mosaic.Config) { c.Beta = 0 })
	add("no_sraf_init", func(c *mosaic.Config) { c.SRAFInit = false })

	var rows []string
	for _, v := range vs {
		start := time.Now()
		res, err := h.setup.Optimize(v.cfg, layout)
		if err != nil {
			return err
		}
		rep, err := h.setup.Evaluate(res.Mask, layout, 0)
		if err != nil {
			return err
		}
		rows = append(rows, fmt.Sprintf("%s,%d,%g,%g,%g",
			v.name, rep.EPEViolations, rep.PVBandNM2, rep.Score, time.Since(start).Seconds()))
		log.Printf("  ablation %-22s EPE=%3d PVB=%7.0f score=%8.0f",
			v.name, rep.EPEViolations, rep.PVBandNM2, rep.Score)
	}
	sort.Strings(rows[1:]) // keep baseline first, rest alphabetical
	return h.writeCSV("ablations_B4.csv", "variant,epe_violations,pvband_nm2,score,runtime_sec", rows)
}

// ablationPW sweeps the process-window weight β of Eq. 19/20 over the
// whole suite in both modes (ROADMAP item 18): one row a (β, mode, clip),
// scored without runtime. The paper's claim is that ΣPVB falls as β rises
// at no worse ΣEPE; β = 0.35 is the default, Table 2's MOSAIC columns.
func (h *harness) ablationPW() error {
	layouts, err := mosaic.Benchmarks()
	if err != nil {
		return err
	}
	var rows []string
	for _, beta := range []float64{0, 0.35, 1} {
		for _, mode := range []mosaic.Mode{mosaic.ModeFast, mosaic.ModeExact} {
			cfg := mosaic.DefaultConfig(mode)
			cfg.Beta = beta
			for _, layout := range layouts {
				res, err := h.setup.Optimize(cfg, layout)
				if err != nil {
					return err
				}
				rep, err := h.setup.Evaluate(res.Mask, layout, 0)
				if err != nil {
					return err
				}
				rows = append(rows, fmt.Sprintf("%g,%s,%s,%d,%g,%d,%g", beta, mode, layout.Name,
					rep.EPEViolations, rep.PVBandNM2, rep.ShapeViolations, rep.Score))
			}
		}
	}
	return h.writeCSV("ablation_pw.csv", "beta,mode,testcase,epe_violations,pvband_nm2,shape_violations,score", rows)
}
