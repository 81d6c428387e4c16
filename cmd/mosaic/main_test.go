package main

import (
	"errors"
	"testing"

	"mosaic"
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
		field          string // "" = accepted
	}{
		{name: "defaults"},
		{name: "sharded", tileNM: 512, haloNM: 160, tileWorkers: 2, tiled: true},
		{name: "converge untiled", converge: true},
		{name: "converge with a tile pitch that does not shard", tileNM: 2048, converge: true},
		{name: "negative tile-nm", tileNM: -5, field: "tile-nm"},
		{name: "negative halo-nm", tileNM: 512, haloNM: -1, tiled: true, field: "halo-nm"},
		{name: "negative tile-workers", tileWorkers: -1, field: "tile-workers"},
		{name: "converge sharded", tileNM: 512, converge: true, tiled: true, field: "converge"},
	} {
		err := checkFlags(tc.tileNM, tc.haloNM, tc.tileWorkers, tc.converge, tc.tiled)
		var ce *mosaic.ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field):
			t.Errorf("%s: got %v, want a *ConfigError on %s", tc.name, err, tc.field)
		}
	}
}
