package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"mosaic"
	"mosaic/internal/geom"
)

// inputs renders everything the program under test would receive for the
// first n operations of every workload.
func inputs(t *testing.T, seed uint64, n int) string {
	t.Helper()
	var sb strings.Builder
	names := mosaic.BenchmarkNames()
	sched := newServiceSchedule(seed, fullSize.Bases)
	for b, c := range sched.Bases {
		l, err := c.layout(fmt.Sprintf("base%d", b))
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(layoutText(l))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintln(&sb, "clip", cellOrder(seed, "clips", names, i))
		cold, err := placedCell("cold", cellOrder(seed, "cold", names, i), i/len(names)).layout(fmt.Sprintf("op%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(layoutText(cold))
		job := sched.job(i)
		l, err := job.Cell.layout(fmt.Sprintf("op%d", i))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&sb, "job", job.Class, job.Base)
		sb.WriteString(layoutText(l))
	}
	return sb.String()
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b := inputs(t, 1, 120), inputs(t, 1, 120)
	if a != b {
		t.Fatal("the same seed produced different inputs")
	}
	if a == inputs(t, 2, 120) {
		t.Fatal("different seeds produced the same inputs")
	}
}

// TestGeneratedLayoutsParse pins the text form: what the generator renders
// is what the service parses back, polygon for polygon.
func TestGeneratedLayoutsParse(t *testing.T) {
	for i, cell := range mosaic.BenchmarkNames() {
		for tr := 0; tr < 8; tr++ {
			l, err := cellSpec{Cell: cell, Transform: tr, DX: jitterStepsNM[i%8], DY: jitterStepsNM[tr]}.layout("t")
			if err != nil {
				t.Fatal(err)
			}
			back, err := geom.Parse(strings.NewReader(layoutText(l)))
			if err != nil {
				t.Fatalf("%s transform %d: %v", cell, tr, err)
			}
			if len(back.Polys) != len(l.Polys) || back.TotalArea() != l.TotalArea() {
				t.Fatalf("%s transform %d: round trip changed the geometry", cell, tr)
			}
			if base, _ := mosaic.Benchmark(cell); l.TotalArea() != base.TotalArea() {
				t.Fatalf("%s transform %d: area %g, cell has %g", cell, tr, l.TotalArea(), base.TotalArea())
			}
		}
	}
}

// TestServiceScheduleMix pins the schedule's shape: every block is 60/20/20
// over the three classes, weighs all ten cells equally, and never submits
// the same jittered or novel layout twice.
func TestServiceScheduleMix(t *testing.T) {
	s := newServiceSchedule(7, fullSize.Bases)
	seen := make(map[string]bool)
	for block := 0; block < 20; block++ {
		classes := make(map[string]int)
		cells := make(map[string]int)
		for pos := 0; pos < s.blockLen(); pos++ {
			j := s.job(block*s.blockLen() + pos)
			classes[j.Class]++
			cells[j.Cell.Cell]++
			if j.Class == classHit {
				if j.Cell != s.Bases[j.Base] {
					t.Fatalf("block %d: resubmit of base %d is %v, base is %v", block, j.Base, j.Cell, s.Bases[j.Base])
				}
				continue
			}
			if seen[j.Cell.String()] {
				t.Fatalf("block %d: %s layout %v was already submitted", block, j.Class, j.Cell)
			}
			seen[j.Cell.String()] = true
			for _, b := range s.Bases {
				if j.Cell == b {
					t.Fatalf("block %d: %s layout %v is a base layout", block, j.Class, j.Cell)
				}
			}
		}
		if classes[classHit] != 15 || classes[classSeeded] != 5 || classes[classNovel] != 5 {
			t.Fatalf("block %d: class mix %v, want 15/5/5", block, classes)
		}
		if len(cells) != 10 {
			t.Fatalf("block %d covers %d cells, want 10", block, len(cells))
		}
	}
}

// TestPlacementsPassChecks is the offline pass behind placementSeed: it
// optimizes every placement the cold schedule (15 blocks) and the service
// schedule (12 blocks, against a library primed and frozen as the service
// workload does it) can reach in a run several times longer than the
// benchmark's, and requires each to beat its no-OPC score. It takes
// minutes, so it runs only with BENCH_VERIFY_PLACEMENTS=1 — after changing
// placementSeed, the jitter steps, or the optimizer.
func TestPlacementsPassChecks(t *testing.T) {
	if os.Getenv("BENCH_VERIFY_PLACEMENTS") == "" {
		t.Skip("set BENCH_VERIFY_PLACEMENTS=1 to run")
	}
	e := &env{size: fullSize, stages: make(map[string]float64)}
	s, err := e.newSetup(coreNM, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mosaic.DefaultConfig(mosaic.ModeFast)
	cfg.MaxIter = fullSize.TileIter
	ctx := context.Background()
	worst := 0.0
	check := func(what string, c cellSpec, opts mosaic.TileOptions) {
		l, err := c.layout("verify")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.OptimizeLayout(ctx, cfg, l, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.EvaluateLayout(res.Mask, l, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.EvaluateLayout(l.Rasterize(res.Mask.W, fullSize.PixelNM), l, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		ratio := qualityScore(rep) / qualityScore(ref)
		worst = max(worst, ratio)
		if ratio >= 1 {
			t.Errorf("%s %v: score %g is not below the no-OPC score %g", what, c, qualityScore(rep), qualityScore(ref))
		}
	}

	names := mosaic.BenchmarkNames()
	for i := 0; i < 15*len(names); i++ {
		check("cold", placedCell("cold", cellOrder(1, "cold", names, i), i/len(names)), mosaic.TileOptions{TileNM: coreNM})
	}

	sched := newServiceSchedule(1, fullSize.Bases)
	dir := t.TempDir()
	lib, err := mosaic.OpenWarmStartLibrary(dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // cold, then seeded: the passes of priming that compute
		for _, c := range sched.Bases {
			check("base", c, mosaic.TileOptions{TileNM: coreNM, WarmStart: lib})
		}
	}
	frozen, err := mosaic.OpenWarmStartLibrary(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12*sched.blockLen(); i++ {
		if j := sched.job(i); j.Class != classHit {
			check(j.Class, j.Cell, mosaic.TileOptions{TileNM: coreNM, WarmStart: frozen})
		}
	}
	t.Logf("worst score / no-OPC score: %.3f", worst)
}
