package main

import (
	"encoding/json"
	"runtime"
)

// runSeconds is the measured-phase length the driver passes as --seconds.
const runSeconds = 16

// workloadSpec names one workload. A schedule is made of blocks of Block
// operations, and every block holds the same inputs under every seed, in
// another order (gen.go). The measured phase runs whole blocks only: at
// least MinBlocks of them, and on until --seconds have passed. The run
// therefore measures the same mix of inputs whatever the seed and however
// fast the machine is; only the number of repeats varies. The quality
// metrics are taken over exactly the first MinBlocks blocks. MaxBlocks, if
// not 0, ends the phase early: it is as far as TestPlacementsPassChecks
// has shown every generated placement to pass its check.
type workloadSpec struct {
	Name      string
	Why       string
	TailPct   float64 // percentile reported as solve_tail_s
	Block     int     // operations per schedule block
	MinBlocks int
	MaxBlocks int
}

func (w *workloadSpec) minOps() int { return w.Block * w.MinBlocks }

var workloads = []workloadSpec{
	{"clips_fast", "B1-B10 untiled, MOSAIC_fast (paper Table 3 fast): ilt/sim/fft do ~97% of the work, tile/cache/warmstart/artifact/serve do none", 0.80, 10, 3, 0},
	{"clips_exact", "B1-B10 untiled, MOSAIC_exact: full SOCS order and per-sample EPE gradient, so a gain for fast that costs exact shows", 0.80, 10, 3, 0},
	{"layout_cold", "seeded jittered cells tiled 2x2 into fresh cache/artifact/warm-start dirs: every tile misses, all three stores are written", 0.80, 10, 3, 15},
	{"service_mix", "loopback mosaicd API, nproc closed-loop clients, 60% cached resubmits / 20% jittered (warm-start seeded) / 20% novel jobs", 0.85, 25, 3, 12},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen. Per-layer
// metrics carry instead the layer (module) they measure, the end-to-end
// metric they should move, and the workload on which they should move it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
	On     string
}

// The timing bounds are the widest the benchmark contract allows. Same-code
// runs on the 2-core sandbox spread by 2-11% once measure.go and calib.go
// have done their part, but an hour in which the host is disturbed from
// end to end still moves them further (README, "Baseline and noise"). The
// quality metrics repeat exactly, so their bound only has to admit a
// deliberate trade.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solve_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solve_tail_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "quality_score_mean", Unit: "score", Better: "lower", Bound: 0.02},
	{Name: "pvband_nm2_mean", Unit: "nm2", Better: "lower", Bound: 0.02},
}

const (
	allWl   = "all"
	clipsWl = "clips_fast,clips_exact"
	tiledWl = "layout_cold,service_mix"
)

func layer(layer, name, unit, better, moves, on string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves, On: on}
}

var perLayer = []metricSpec{
	layer("optics", "optics.newsetup_s", "s", "lower", "setup_s", allWl),
	layer("optics", "optics.kernels_build_s", "s", "lower", "setup_s", allWl),
	layer("optics", "optics.socs_order", "count", "lower", "solve_p50_s", "clips_exact"),
	layer("optics", "optics.kernel_cache_hits", "count", "higher", "setup_s", allWl),
	layer("optics", "optics.kernel_cache_misses", "count", "lower", "setup_s", allWl),

	layer("fft", "fft.fwd_real_band_us.128", "us", "lower", "solve_p50_s", allWl),
	layer("fft", "fft.fwd_real_band_us.256", "us", "lower", "solve_p50_s", "none"),
	layer("fft", "fft.fwd_real_band_us.512", "us", "lower", "solve_p50_s", "none"),
	layer("fft", "fft.inv_band_us.128", "us", "lower", "solve_p50_s", allWl),
	layer("fft", "fft.inv_band_us.256", "us", "lower", "solve_p50_s", "none"),
	layer("fft", "fft.inv_band_us.512", "us", "lower", "solve_p50_s", "none"),
	layer("fft", "fft.ref_inverse2d_us.256", "us", "lower", "solve_p50_s", "none"),
	layer("fft", "fft.pruned_inverse_per_iter", "count", "lower", "solve_p50_s", clipsWl),
	layer("fft", "fft.pruned_forward_per_iter", "count", "lower", "solve_p50_s", clipsWl),
	layer("fft", "fft.pruned_fallback", "count", "lower", "solve_p50_s", allWl),
	layer("fft", "fft.budget_excess_per_iter", "count", "lower", "solve_p50_s", clipsWl),

	layer("sim", "sim.aerial_ms.nominal", "ms", "lower", "solve_p50_s", allWl),
	layer("sim", "sim.aerial_ms.defocus", "ms", "lower", "solve_p50_s", allWl),
	layer("sim", "sim.aerial_combined_ms", "ms", "lower", "solve_p50_s", clipsWl),
	layer("resist", "resist.sigmoid_us", "us", "lower", "solve_p50_s", clipsWl),

	layer("ilt", "ilt.iter_ms_p50", "ms", "lower", "solve_p50_s", "clips_fast,clips_exact,layout_cold"),
	layer("ilt", "ilt.init_ms", "ms", "lower", "solve_p50_s", "clips_fast,clips_exact,layout_cold"),
	layer("ilt", "ilt.iters_per_op", "count", "lower", "solve_p50_s", "clips_fast,clips_exact,layout_cold"),
	layer("ilt", "ilt.seeded_ratio", "ratio", "higher", "solve_tail_s", "service_mix"),
	layer("ilt", "ilt.busy_share", "ratio", "higher", "solve_p50_s", "clips_fast,clips_exact,layout_cold"),

	layer("sraf", "sraf.apply_ms", "ms", "lower", "solve_p50_s", clipsWl),
	layer("geom", "geom.rasterize_ms", "ms", "lower", "solve_p50_s", clipsWl),
	layer("geom", "geom.sample_points_ms", "ms", "lower", "solve_p50_s", clipsWl),
	layer("geom", "geom.window_clip_ms", "ms", "lower", "solve_p50_s", "layout_cold"),

	layer("metrics", "metrics.evaluate_ms", "ms", "lower", "solve_p50_s", clipsWl),
	layer("metrics", "metrics.epe_violations", "count", "lower", "quality_score_mean", allWl),

	layer("tile", "tile.evaluate_ms", "ms", "lower", "solve_p50_s", "service_mix"),
	layer("tile", "tile.plan_ms", "ms", "lower", "solve_p50_s", tiledWl),
	layer("tile", "tile.run_ms_p50", "ms", "lower", "solve_p50_s", "layout_cold"),
	layer("tile", "tile.stitch_ms", "ms", "lower", "solve_p50_s", tiledWl),
	layer("tile", "tile.overhead_ms", "ms", "lower", "solve_p50_s", "layout_cold"),
	layer("tile", "tile.tiles_per_op", "count", "lower", "solve_p50_s", tiledWl),
	layer("tile", "tile.retries", "count", "lower", "solve_tail_s", tiledWl),
	layer("tile", "tile.empty", "count", "higher", "solve_p50_s", tiledWl),

	layer("par", "par.speedup_2c", "ratio", "higher", "throughput_per_s", "layout_cold"),
	layer("par", "par.inline_ratio", "ratio", "lower", "throughput_per_s", tiledWl),

	layer("cache", "cache.key_us", "us", "lower", "solve_p50_s", "service_mix"),
	layer("cache", "cache.hit_mem_us", "us", "lower", "solve_p50_s", "service_mix"),
	layer("cache", "cache.hit_disk_us", "us", "lower", "solve_p50_s", "service_mix"),
	layer("cache", "cache.put_ms", "ms", "lower", "solve_p50_s", "layout_cold"),
	layer("cache", "cache.hit_ratio", "ratio", "higher", "solve_p50_s", "service_mix"),

	layer("warmstart", "warmstart.signature_us", "us", "lower", "solve_p50_s", tiledWl),
	layer("warmstart", "warmstart.prepare_ms", "ms", "lower", "solve_tail_s", "service_mix"),
	layer("warmstart", "warmstart.finish_ms", "ms", "lower", "solve_p50_s", "layout_cold"),
	layer("warmstart", "warmstart.hit_ratio", "ratio", "higher", "solve_tail_s", "service_mix"),
	layer("warmstart", "warmstart.fallbacks", "count", "lower", "solve_tail_s", "service_mix"),
	layer("warmstart", "warmstart.seeded_iters_mean", "count", "lower", "solve_tail_s", "service_mix"),
	layer("warmstart", "warmstart.cold_iters_mean", "count", "lower", "solve_p50_s", "layout_cold"),

	layer("artifact", "artifact.encode_ms", "ms", "lower", "solve_p50_s", tiledWl),
	layer("artifact", "artifact.putblob_ms", "ms", "lower", "solve_p50_s", "layout_cold"),
	layer("artifact", "artifact.commit_ms", "ms", "lower", "solve_p50_s", tiledWl),
	layer("artifact", "artifact.verify_ms", "ms", "lower", "solve_p50_s", "none"),
	layer("artifact", "artifact.dedup_ratio", "ratio", "higher", "solve_p50_s", "service_mix"),
	layer("artifact", "artifact.batches_per_record", "ratio", "lower", "throughput_per_s", "service_mix"),

	layer("serve", "serve.boot_s", "s", "lower", "setup_s", "service_mix"),
	layer("serve", "serve.prime_s", "s", "lower", "setup_s", "service_mix"),
	layer("serve", "serve.submit_ms_p50", "ms", "lower", "solve_p50_s", "service_mix"),
	layer("serve", "serve.queue_wait_ms_p50", "ms", "lower", "solve_p50_s", "service_mix"),
	layer("serve", "serve.run_s_p50", "s", "lower", "solve_p50_s", "service_mix"),
	layer("serve", "serve.notify_lag_ms_p50", "ms", "lower", "solve_p50_s", "service_mix"),
	layer("serve", "serve.fetch_ms_p50", "ms", "lower", "solve_p50_s", "service_mix"),
	layer("serve", "serve.hit_p50_s", "s", "lower", "solve_p50_s", "service_mix"),
	layer("serve", "serve.seeded_p50_s", "s", "lower", "solve_tail_s", "service_mix"),
	layer("serve", "serve.novel_p50_s", "s", "lower", "solve_tail_s", "service_mix"),

	layer("grid", "grid.pool_hit_ratio", "ratio", "higher", "solve_p50_s", allWl),
	layer("runtime", "runtime.alloc_mb_per_op", "MB", "lower", "solve_p50_s", allWl),
	layer("runtime", "runtime.allocs_per_op", "count", "lower", "solve_p50_s", "service_mix"),
	layer("runtime", "runtime.heap_peak_mb", "MB", "lower", "solve_tail_s", allWl),
	layer("runtime", "runtime.gc_cpu_fraction", "ratio", "lower", "solve_p50_s", allWl),

	layer("harness", "trace.coverage", "ratio", "higher", "solve_p50_s", allWl),
	layer("harness", "trace.overhead_ratio", "ratio", "lower", "solve_p50_s", allWl),
}

// benchmarkJSON renders BENCHMARK.json from the tables above; the file at
// the repo root is this output, and a test keeps the two in step.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document holds only strings and numbers
	}
	return append(out, '\n')
}

// nproc is the core count every run pins GOMAXPROCS to and the number of
// closed-loop service clients.
func nproc() int { return runtime.NumCPU() }
