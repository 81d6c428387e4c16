package main

import (
	"sort"
	"testing"
)

// TestSmoke runs a miniature of all four workloads, untraced and traced,
// in-process: 64-px grids (16 nm pixels), three optimizer iterations, two
// primed bases, two operations per phase. It keeps the harness, its
// correctness checks and the name tables alive under `go test ./...`.
func TestSmoke(t *testing.T) {
	mini := sizing{PixelNM: 16, ClipIter: 3, TileIter: 3, Bases: 2}
	measured := map[string]bool{"par.speedup_2c": true} // needs a child process, which a test cannot start
	for i, w := range workloads {
		spec := w
		spec.Block, spec.MinBlocks = 2, 1
		o := options{workload: w.Name, seed: 3, seconds: 0.01, out: t.TempDir(), probes: i == len(workloads)-1}
		newEnv := func() *env {
			return &env{seed: o.seed, size: mini, dir: t.TempDir(), stages: make(map[string]float64)}
		}

		res, err := untracedRun(o, newEnv(), &spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != spec.minOps() {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w.Name, m.Name, v)
			}
		}

		res, vals, err := tracedRun(o, newEnv(), &spec)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !res.Correct {
			t.Fatalf("%s traced: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if c := vals["trace.coverage"]; c < 0.95 {
			t.Errorf("%s: trace coverage %g, want >= 0.95", w.Name, c)
		}
		for name := range vals {
			measured[name] = true
		}
	}

	// Two-way: tracedRun already refuses a value whose name spec.go does
	// not declare; here every declared per-layer metric must have been
	// measured by at least one workload.
	var missing []string
	for _, m := range perLayer {
		if !measured[m.Name] {
			missing = append(missing, m.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("declared in spec.go but never measured: %v", missing)
	}
}
