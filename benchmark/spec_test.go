package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONInSync pins BENCHMARK.json to the tables in spec.go, in
// both directions: the file is exactly what `benchmark spec` prints, so
// every workload and metric the harness can report is declared there with
// unit, direction and bound, and nothing is declared that it cannot report.
func TestBenchmarkJSONInSync(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with `bash benchmark/run.sh spec > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

// TestSpecTables checks the tables against the benchmark contract and the
// interaction rule: every per-layer metric names its layer, the end-to-end
// metric it should move, and the workloads on which it should move it.
func TestSpecTables(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.TailPct <= 0.5 || w.TailPct >= 1 || w.Block < 1 || w.MinBlocks < 1 || (w.MaxBlocks != 0 && w.MaxBlocks < w.MinBlocks) {
			t.Errorf("workload %s: tail percentile %g, blocks of %d, %d to %d of them", w.Name, w.TailPct, w.Block, w.MinBlocks, w.MaxBlocks)
		}
	}

	e2e := make(map[string]bool)
	for _, m := range endToEnd {
		use(m.Name)
		e2e[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}

	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if m.Layer == "" || !(strings.HasPrefix(m.Name, m.Layer+".") || m.Layer == "harness") {
			t.Errorf("%s: layer %q does not prefix the name", m.Name, m.Layer)
		}
		if !e2e[m.Moves] {
			t.Errorf("%s: moves %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		for _, on := range strings.Split(m.On, ",") {
			if on != allWl && on != "none" && findWorkload(on) == nil {
				t.Errorf("%s: moves %s on %q, which is not a workload", m.Name, m.Moves, on)
			}
		}
	}
}
