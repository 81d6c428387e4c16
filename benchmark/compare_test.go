package main

import "testing"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "solve_p50_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.7, 1.3}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same code", lower, steady, steady, "ok"},
		{"within bound", lower, steady, scale(1.05), "ok"},
		{"slower", lower, steady, scale(1.2), "regressed"},
		{"faster", lower, steady, scale(0.8), "ok"},
		{"less throughput", higher, steady, scale(0.8), "regressed"},
		{"more throughput", higher, steady, scale(1.2), "ok"},
		{"noise wider than bound", lower, noisy, noisy, "unresolved"},
		{"noisy but every run better", lower, noisy, scale(0.5), "ok"},
		{"noisy but every run worse", lower, noisy, scale(2), "regressed"},
	} {
		if _, _, _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
