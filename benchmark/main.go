// Command benchmark is the repo's one benchmark: it drives four workloads
// through the public surface of the system — the mosaic façade, the serve
// HTTP API over a loopback socket, the exported functions of internal/*
// and the obs metric registry — and reports end-to-end metrics (untraced
// run) or the per-layer ledger (traced run). See README.md.
//
//	bash benchmark/run.sh --workload clips_fast --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh run --seeds 1,2,3 --out benchmark/out/A.json
//	bash benchmark/run.sh compare benchmark/out/A.json benchmark/out/B.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mosaic"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "run":
			os.Exit(runAllMain(os.Args[2:]))
		case "spec":
			os.Stdout.Write(benchmarkJSON())
			return
		}
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultOut is where a run keeps its traces and scratch stores.
var defaultOut = filepath.Join("benchmark", "out")

// options are the flags of one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// child selects an internal mode the harness runs itself in: "setup"
	// times a cold set-up, "serial" times the first ops operations (the
	// parent sets GOMAXPROCS=1 in the child's environment).
	child string
	ops   int
	// children and probes are on for every command-line run; the tier-1
	// smoke test, which runs in-process, turns them off: it cannot
	// re-execute itself and has no time for the layer probes.
	children bool
	probes   bool
}

func parseOptions(args []string) (options, error) {
	o := options{children: true, probes: true}
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: clips_fast, clips_exact, layout_cold or service_mix")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.out, "out", defaultOut, "directory for traces and scratch stores")
	fs.StringVar(&o.child, "child", "", "internal: setup or serial")
	fs.IntVar(&o.ops, "ops", 0, "internal: operations of a serial child")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace != 0
	return o, nil
}

func runMain(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.child != "serial" {
		// The serial child keeps the GOMAXPROCS its parent put in its
		// environment; every other run uses all cores.
		runtime.GOMAXPROCS(nproc())
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: o.seed, size: fullSize, dir: scratch, stages: make(map[string]float64)}
	spec := findWorkload(o.workload)
	var res result
	switch {
	case o.child == "setup":
		return childSetup(o, e)
	case o.child == "serial":
		return childSerial(o, e)
	case o.trace:
		res, _, err = tracedRun(o, e, spec)
	default:
		res, err = untracedRun(o, e, spec)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupRepeats is how many cold set-ups one untraced run times: this
// process's own plus setupRepeats-1 child processes, because the kernel
// sets are cached process-wide and only a new process starts cold.
const setupRepeats = 3

// untracedRun measures the end-to-end metrics.
func untracedRun(o options, e *env, spec *workloadSpec) (result, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 1; i < setupRepeats && o.children; i++ {
		var out struct{ SetupS float64 }
		if err := runChild(o, nil, &out, "--child", "setup"); err != nil {
			return result{}, err
		}
		setups = append(setups, out.SetupS)
	}
	w := newWorkload(o.workload, e)
	own, err := timedSetup(w)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, own)
	if err := w.Warm(); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}

	recs, wall := phase{
		Clients: clientsOf(o.workload), Block: spec.Block, MinOps: spec.minOps(), MaxOps: spec.Block * spec.MaxBlocks,
		Dur: seconds(o.seconds), Calibrate: true,
	}.run(w)
	verify(recs)
	finishErr := w.Finish()
	if finishErr != nil {
		fmt.Println("run-level check failed:", finishErr)
	}
	vals := endToEndValues(spec, recs, wall, percentile(setups, 0.5))
	res, err := newResult(endToEnd, vals, recs, finishErr)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("set-up times %.3f calibrated s (median of %d cold processes reported)\n", setups, len(setups))
	describe(spec, endToEnd, res, recs, wall)
	describeInputs(spec, recs, wall)
	return res, writeOps(o.out, o.workload, recs)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// clientsOf is the closed-loop caller count: a mask-synthesis caller waits
// for its mask, so one caller for the library, nproc for the service.
func clientsOf(workload string) int {
	if workload == "service_mix" {
		return nproc()
	}
	return 1
}

// timedSetup runs the workload's set-up and returns how long it took in
// calibrated seconds: wall seconds times the mean of the host speeds right
// before and right after it, on a machine at rest, where the reference's
// best is its nominal speed (calib.go).
func timedSetup(w workload) (float64, error) {
	ref := newRefKernel()
	before := ref.idleSpeed()
	t0 := time.Now()
	err := w.Setup()
	wall := time.Since(t0).Seconds()
	return wall * max((before+ref.idleSpeed())/2, minCorrection), err
}

func childSetup(o options, e *env) error {
	w := newWorkload(o.workload, e)
	d, err := timedSetup(w)
	if err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"SetupS": d})
}

// childSerial runs the first o.ops operations from one caller and reports
// their summed latency; with GOMAXPROCS=1 in its environment it is the
// single-threaded baseline of par.speedup_2c.
func childSerial(o options, e *env) error {
	w := newWorkload(o.workload, e)
	if err := w.Setup(); err != nil {
		return err
	}
	if err := w.Warm(); err != nil {
		return err
	}
	sum := 0.0
	for i := 0; i < o.ops; i++ {
		r, err := w.Op(i, 0)
		if err != nil {
			return err
		}
		sum += r.Latency.Seconds()
	}
	if err := w.Finish(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"LatencyS": sum})
}

// runChild re-executes this binary for o's workload and seed with extra
// arguments, waits for it, and decodes the JSON on its last output line.
func runChild(o options, extraEnv []string, into any, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append([]string{"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10), "--out", o.out}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", extra, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return json.Unmarshal(lines[len(lines)-1], into)
}

// tracedRun produces the per-layer ledger: half of the time untraced (the
// overhead baseline), half with the hooks on, then the layer probes.
func tracedRun(o options, e *env, spec *workloadSpec) (result, map[string]float64, error) {
	tr := newTracer()
	e.hooks = newHooks(tr)
	w := newWorkload(o.workload, e)
	if err := w.Setup(); err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	if err := w.Warm(); err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	clients := clientsOf(o.workload)
	// The ledger has no bound to keep, so the traced phases may end inside
	// a block; together they stay within the untraced phase's reach.
	half := phase{Clients: clients, Block: 1, MinOps: max(1, spec.minOps()/4), MaxOps: spec.Block * spec.MaxBlocks / 2, Dur: seconds(o.seconds / 2)}
	plain, _ := half.run(w)

	e.tr = tr
	e.hooks.on.Store(true)
	before := counters()
	sampler := startRuntimeSampler()
	half.First = len(plain)
	recs, wall := half.run(w)
	allocBytes, allocObjects, gcFraction, heapPeak := sampler.finish()
	after := counters()
	e.hooks.on.Store(false)
	e.tr = nil

	verify(plain)
	verify(recs)
	vals := make(map[string]float64)
	if sw, ok := w.(*serviceWorkload); ok {
		sw.layerValues(recs, vals)
	}
	finishErr := w.Finish()

	nOps := float64(len(latencies(recs, "")))
	spans, coverage := tr.finish()
	vals["trace.coverage"] = coverage
	vals["trace.overhead_ratio"] = overheadRatio(plain, recs)
	e.hooks.layerValues(recs, spans, vals)
	counterValues(before, after, nOps, vals)
	for name, sec := range e.stages {
		vals[name] = sec
	}
	for _, r := range recs {
		vals["metrics.epe_violations"] += float64(r.EPE)
	}
	vals["runtime.alloc_mb_per_op"] = div(allocBytes/(1<<20), nOps)
	vals["runtime.allocs_per_op"] = div(allocObjects, nOps)
	vals["runtime.heap_peak_mb"] = heapPeak / (1 << 20)
	vals["runtime.gc_cpu_fraction"] = gcFraction

	var probeErr error
	if o.probes {
		if probeErr = probeAll(o, e, plain, vals); probeErr != nil {
			probeErr = fmt.Errorf("layer probes: %w", probeErr)
			fmt.Println(probeErr)
		}
	}
	if err := writeTrace(o.out, o.workload, spans); err != nil {
		return result{}, nil, err
	}

	all := append(plain, recs...)
	res, err := newResult(perLayer, vals, all, errors.Join(finishErr, probeErr))
	if err != nil {
		return result{}, nil, err
	}
	describe(spec, perLayer, res, all, wall)
	return res, vals, nil
}

// counterValues derives the per-layer counts and ratios from two readings
// of the program's metric registry taken around the traced phase.
func counterValues(before, after map[string]float64, nOps float64, vals map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	vals["optics.socs_order"] = after["optics_socs_order"]
	vals["optics.kernel_cache_hits"] = after["optics_kernel_cache_hits_total"]
	vals["optics.kernel_cache_misses"] = after["optics_kernel_cache_misses_total"]
	vals["fft.pruned_fallback"] = delta("fft_pruned_fallback_total")
	vals["tile.tiles_per_op"] = div(delta("tile_opt_total"), nOps)
	vals["tile.retries"] = delta("tile_retries_total")
	vals["tile.empty"] = delta("tile_empty_total")
	vals["par.inline_ratio"] = ratio(delta("par_pool_inline_total"), delta("par_pool_helpers_total"))
	vals["cache.hit_ratio"] = ratio(delta("cache_hits_total"), delta("cache_misses_total"))
	vals["warmstart.hit_ratio"] = ratio(delta("warmstart_hits_total"), delta("warmstart_misses_total"))
	vals["warmstart.fallbacks"] = delta("warmstart_fallbacks_total")
	vals["warmstart.seeded_iters_mean"] = div(delta("warmstart_seeded_iterations_sum"), delta("warmstart_seeded_iterations_count"))
	vals["warmstart.cold_iters_mean"] = div(delta("warmstart_cold_iterations_sum"), delta("warmstart_cold_iterations_count"))
	vals["artifact.dedup_ratio"] = ratio(delta("artifact_blobs_deduped_total"), delta("artifact_blobs_written_total"))
	vals["artifact.batches_per_record"] = div(delta("artifact_anchor_batches_total"), delta("artifact_records_total"))
	vals["grid.pool_hit_ratio"] = ratio(delta("grid_pool_field_hits_total")+delta("grid_pool_cfield_hits_total"),
		delta("grid_pool_field_misses_total")+delta("grid_pool_cfield_misses_total"))
}

// probeAll runs the measurements that need the machine to themselves: the
// layer probes, the FFT budget, and for layout_cold the one-core baseline.
func probeAll(o options, e *env, plain []opRecord, vals map[string]float64) error {
	layout, err := probeLayout(o, e)
	if err != nil {
		return err
	}
	if err := probeLayers(e, layout, vals); err != nil {
		return err
	}
	mode := mosaic.ModeFast
	if o.workload == "clips_exact" {
		mode = mosaic.ModeExact
	}
	if err := probeFFTBudget(e, layout, mode, vals); err != nil {
		return err
	}
	if o.workload == "layout_cold" && o.children {
		return probeSpeedup(o, plain, vals)
	}
	return nil
}

// overheadRatio is the traced phase's median latency over the untraced
// phase's, taken per job class and averaged, so that a mix of cheap and
// expensive classes does not turn a shift of the mix into overhead.
func overheadRatio(plain, traced []opRecord) float64 {
	classes := []string{""}
	if len(traced) > 0 && traced[0].Class != "" {
		classes = []string{classHit, classSeeded, classNovel}
	}
	var ratios []float64
	for _, class := range classes {
		a, b := latencies(plain, class), latencies(traced, class)
		if len(a) > 0 && len(b) > 0 {
			ratios = append(ratios, percentile(b, 0.5)/percentile(a, 0.5))
		}
	}
	return mean(ratios)
}

// probeLayout is the input of the layer probes: the layout operation 0 of
// the workload used.
func probeLayout(o options, e *env) (*mosaic.Layout, error) {
	names := mosaic.BenchmarkNames()
	switch o.workload {
	case "layout_cold":
		return placedCell("cold", cellOrder(e.seed, "cold", names, 0), 0).layout("probe")
	case "service_mix":
		return newServiceSchedule(e.seed, e.size.Bases).job(0).Cell.layout("probe")
	}
	return mosaic.Benchmark(cellOrder(e.seed, "clips", names, 0))
}

// probeSpeedup reruns the first operations of the untraced phase in a
// child process pinned to one core and reports how much faster this
// process, on all cores, ran the same operations.
func probeSpeedup(o options, plain []opRecord, vals map[string]float64) error {
	ops := min(6, len(plain))
	parallel := 0.0
	for _, r := range plain[:ops] {
		if r.Fail != "" {
			return fmt.Errorf("operation %d failed, no speed-up baseline", r.Index)
		}
		parallel += r.Latency.Seconds()
	}
	var out struct{ LatencyS float64 }
	if err := runChild(o, []string{"GOMAXPROCS=1"}, &out, "--child", "serial", "--ops", strconv.Itoa(ops)); err != nil {
		return err
	}
	vals["par.speedup_2c"] = div(out.LatencyS, parallel)
	return nil
}
