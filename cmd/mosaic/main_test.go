package main

import (
	"errors"
	"flag"
	"testing"

	"mosaic"
	"mosaic/internal/cli"
)

// TestCheckFlags: a flag value the run would ignore or refuse is a typed
// error before the kernel build; zero keeps meaning "default".
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name           string
		tileNM, haloNM float64
		tileWorkers    int
		converge       bool
		tiled          bool
		method         string
		set            []string // flags given on the command line
		field          string   // "" = accepted
	}{
		{name: "defaults"},
		{name: "sharded", tileNM: 512, haloNM: 160, tileWorkers: 2, tiled: true},
		{name: "converge untiled", converge: true},
		{name: "converge with a tile pitch that does not shard", tileNM: 2048, converge: true},
		{name: "negative tile-nm", tileNM: -5, field: "tile-nm"},
		{name: "negative halo-nm", tileNM: 512, haloNM: -1, tiled: true, field: "halo-nm"},
		{name: "negative tile-workers", tileWorkers: -1, field: "tile-workers"},
		{name: "converge sharded", tileNM: 512, converge: true, tiled: true, field: "converge"},
		{name: "baseline", method: "rulebased", set: []string{"testcase", "method", "grid", "v"}},
		{name: "pipeline flags without -method", tileNM: 512, tiled: true, set: []string{"tile-nm", "cache-dir", "out"}},
		// The reproduced command line: -tile-nm shrank the pixel under a
		// baseline that never tiles, and the stores were opened for nothing.
		{name: "baseline with -tile-nm and stores", method: "rulebased", tileNM: 512, tiled: true,
			set: []string{"testcase", "method", "grid", "tile-nm", "artifact-dir", "cache-dir", "out"}, field: "tile-nm"},
		{name: "baseline with -mode", method: "modelbased", set: []string{"mode"}, field: "mode"},
		{name: "baseline with -iter", method: "modelbased", set: []string{"iter"}, field: "iter"},
		{name: "baseline with -converge", method: "modelbased", converge: true, set: []string{"converge"}, field: "converge"},
		{name: "baseline with -halo-nm", method: "modelbased", haloNM: 160, set: []string{"halo-nm"}, field: "halo-nm"},
		{name: "baseline with -tile-workers", method: "modelbased", tileWorkers: 2, set: []string{"tile-workers"}, field: "tile-workers"},
		{name: "baseline with -trace-perfetto", method: "plainilt", set: []string{"trace-perfetto"}, field: "trace-perfetto"},
		{name: "baseline with -out", method: "plainilt", set: []string{"out"}, field: "out"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkFlags(tc.tileNM, tc.haloNM, tc.tileWorkers, tc.converge, tc.tiled, tc.method, set)
		var ce *mosaic.ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field):
			t.Errorf("%s: got %v, want a *ConfigError on %s", tc.name, err, tc.field)
		}
	}
	// The store flags are registered by internal/cli: one added there must
	// not become a flag a -method run silently ignores.
	fs := flag.NewFlagSet("mosaic", flag.ContinueOnError)
	cli.AddStoreFlags(fs, 0)
	fs.VisitAll(func(f *flag.Flag) {
		err := checkFlags(0, 0, 0, false, false, "rulebased", map[string]bool{f.Name: true})
		var ce *mosaic.ConfigError
		if !errors.As(err, &ce) || ce.Field != f.Name {
			t.Errorf("-method with -%s: got %v, want a *ConfigError on %s", f.Name, err, f.Name)
		}
	})
}
