package ilt

import (
	"errors"
	"testing"

	"mosaic/internal/grid"
)

func TestSeedMaskValidation(t *testing.T) {
	o, _ := testOptimizer(t, ModeFast)
	cfg := o.Cfg
	cfg.SeedMask = grid.New(16, 16) // simulator grid is 64
	_, err := New(o.Sim, cfg)
	var cerr *ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "SeedMask" {
		t.Fatalf("mis-sized SeedMask: got %v, want ConfigError on SeedMask", err)
	}
}

// TestSeedRejectedBitIdentical: a seed that probes worse than the default
// init (here: a fully-open mask, lighting the whole window) must be
// rejected, and the run must be bit-identical to an unseeded one.
func TestSeedRejectedBitIdentical(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	cold, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}

	bad := grid.New(64, 64)
	for i := range bad.Data {
		bad.Data[i] = 1
	}
	cfg := o.Cfg
	cfg.SeedMask = bad
	seeded, err := New(o.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(seeded, layout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeded {
		t.Fatal("a fully-open seed must probe worse than the target init and be rejected")
	}
	if !res.MaskGray.Equal(cold.MaskGray, 0) {
		t.Fatal("rejected seed must leave the run bit-identical to an unseeded one")
	}
	if res.Iterations != cold.Iterations || res.Objective != cold.Objective {
		t.Fatalf("rejected seed changed the trajectory: %d/%g vs %d/%g",
			res.Iterations, res.Objective, cold.Iterations, cold.Objective)
	}
}

// TestSeedAcceptedConverges: seeding from a previous run's converged
// continuous mask must be accepted (it probes no worse than the cold
// init) and must not score worse than the cold run.
func TestSeedAcceptedConverges(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	cold, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}

	cfg := o.Cfg
	cfg.SeedMask = cold.MaskGray
	seeded, err := New(o.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(seeded, layout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeded {
		t.Fatal("a converged mask must probe no worse than the cold init and be accepted")
	}
	if res.Objective > cold.Objective {
		t.Fatalf("seeded run scored %g, worse than cold %g", res.Objective, cold.Objective)
	}
}

// TestObjTolPlateauStops: a run that adopts a converged seed must stop on
// the plateau (no plateauTol-sized objective improvement, after its
// maxJumps jumps) well before MaxIter; a cold run has no plateau stop and
// runs the full budget.
func TestObjTolPlateauStops(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	cold, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations != o.Cfg.MaxIter {
		t.Fatalf("cold run stopped at %d of %d iterations", cold.Iterations, o.Cfg.MaxIter)
	}

	cfg := o.Cfg
	cfg.MaxIter = 20
	cfg.SeedMask = cold.MaskGray
	seeded, err := New(o.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(seeded, layout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeded {
		t.Fatal("converged seed rejected")
	}
	if res.Iterations >= cfg.MaxIter {
		t.Fatalf("plateau stop never fired: ran all %d iterations", res.Iterations)
	}
	if res.Objective > cold.Objective {
		t.Fatalf("plateau-stopped run scored %g, worse than cold %g", res.Objective, cold.Objective)
	}
}
