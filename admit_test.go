package mosaic

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/obs"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// inadmissible is one row of testdata/inadmissible.json: a request no layer
// can run, spelled as the job API spells it, and the library field its
// refusal names. The same file is fed through the other three entry points
// by cmd/mosaic's TestAdmitFlags, serve's TestSubmitRefusesWhatCannotRun
// and cmd/mosaicd's TestValidateFlags; each must name the same field.
type inadmissible struct {
	Name  string
	Field string
	Job   struct {
		Grid        int     `json:"grid"`
		MaxIter     int     `json:"max_iter"`
		TileNM      float64 `json:"tile_nm"`
		TileWorkers int     `json:"tile_workers"`
		Benchmark   string  `json:"benchmark"`
		Layout      string  `json:"layout"`
	}
}

func inadmissibleRows(t *testing.T) []inadmissible {
	t.Helper()
	raw, err := os.ReadFile("testdata/inadmissible.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []inadmissible
	if err := json.Unmarshal(raw, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("testdata/inadmissible.json: %d rows, %v", len(rows), err)
	}
	return rows
}

// TestAdmitRefusals: every request of the shared table is refused with a
// *ConfigError on its field by Admit, and by the library call that would
// have run it (NewSetup for a grid, OptimizeLayout for the rest) — before a
// single kernel set is built.
func TestAdmitRefusals(t *testing.T) {
	misses := obs.NewCounter("optics_kernel_cache_misses_total")
	before := misses.Value()
	for _, row := range inadmissibleRows(t) {
		layout, err := Benchmark(row.Job.Benchmark)
		if row.Job.Layout != "" {
			layout, err = geom.Parse(strings.NewReader(row.Job.Layout))
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(ModeFast)
		if row.Job.MaxIter != 0 {
			cfg.MaxIter = row.Job.MaxIter
		}
		opts := TileOptions{TileNM: row.Job.TileNM, Workers: row.Job.TileWorkers}
		check := func(via string, err error) {
			t.Helper()
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != row.Field {
				t.Errorf("%s: %s: got %v, want a *ConfigError on %s", row.Name, via, err, row.Field)
			}
		}
		check("Admit", Admit(DefaultOptics(), row.Job.Grid, layout, cfg, opts))

		optics, _ := JobOptics(DefaultOptics(), row.Job.Grid, layout, row.Job.TileNM)
		if row.Field == "OpticsConfig.GridSize" {
			_, err := NewSetup(optics)
			check("NewSetup", err)
			continue
		}
		s, err := sim.New(optics, resist.Default()) // builds no kernel
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		_, err = (&Setup{Sim: s, Params: DefaultEvalParams()}).OptimizeLayout(context.Background(), cfg, layout, opts)
		check("OptimizeLayout", err)
	}
	if built := misses.Value() - before; built != 0 {
		t.Errorf("%d kernel sets were built on the way to the refusals", built)
	}
}

// TestAdmitBounds: zero stays the documented default, the bounds are
// inclusive where the docs say so, a NaN is below every bound, and the
// optimizer's own rules are part of the gate.
func TestAdmitBounds(t *testing.T) {
	b1, err := Benchmark("B1")
	if err != nil {
		t.Fatal(err)
	}
	fast := DefaultConfig(ModeFast)
	gamma := fast
	gamma.Gamma = 3
	seeded := fast
	seeded.SeedMask = &Field{W: 32, H: 32, Data: make([]float64, 32*32)}
	for _, tc := range []struct {
		name   string
		grid   int
		layout *Layout
		cfg    Config
		opts   TileOptions
		field  string // "" = admitted
	}{
		{"zero options", 0, b1, fast, TileOptions{}, ""},
		{"explicit tiling", 64, b1, fast, TileOptions{TileNM: 512, Workers: 1}, ""},
		{"a pitch the layout fits inside", 64, b1, fast, TileOptions{TileNM: 2048}, ""},
		{"smallest grid that calibrates", 4, b1, fast, TileOptions{}, ""},
		{"largest grid one frame holds", 8192, b1, fast, TileOptions{}, ""},
		{"a seed of the window grid", 32, b1, seeded, TileOptions{}, ""},
		{"a seed of another grid", 64, b1, seeded, TileOptions{}, "SeedMask"},
		{"an optimizer rule", 64, b1, gamma, TileOptions{}, "Gamma"},
		{"NaN tile pitch", 64, b1, fast, TileOptions{TileNM: math.NaN()}, "TileOptions.TileNM"},
		{"infinite tile pitch is a pitch the layout fits inside", 64, b1, fast, TileOptions{TileNM: math.Inf(1)}, ""},
		{"nil layout", 64, nil, fast, TileOptions{}, "Layout"},
		{"layout without an extent", 64, &Layout{Name: "flat"}, fast, TileOptions{}, "Layout.SizeNM"},
		{"NaN layout extent", 64, &Layout{Name: "nan", SizeNM: math.NaN()}, fast, TileOptions{}, "Layout.SizeNM"},
		{"infinite layout extent", 64, &Layout{Name: "inf", SizeNM: math.Inf(1)}, fast, TileOptions{}, "Layout.SizeNM"},
		{"polygon outside the clip", 64, &Layout{Name: "out", SizeNM: 512, Polys: []Polygon{Rect{X: 500, Y: 0, W: 64, H: 64}.Polygon()}}, fast, TileOptions{}, "Layout"},
	} {
		err := Admit(DefaultOptics(), tc.grid, tc.layout, tc.cfg, tc.opts)
		var ce *ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field):
			t.Errorf("%s: got %v, want a *ConfigError on %s", tc.name, err, tc.field)
		}
	}
}
