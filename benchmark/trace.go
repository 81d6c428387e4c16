package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mosaic"
	"mosaic/internal/ilt"
	"mosaic/internal/tile"
)

// span is one timed interval recorded by the harness around a call into
// the program. Spans of one operation share Op; Parent is the ID of the
// span that caused this one (0 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"` // duration minus the part its children cover
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was timed elsewhere.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// unionNS returns the total length covered by the intervals.
func unionNS(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// finish fills in self times and returns the spans plus the coverage: the
// share of all operation roots' wall time that their direct children cover.
func (t *tracer) finish() (spans []span, coverage float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var rootNS, coveredNS int64
	for i := range t.spans {
		s := &t.spans[i]
		covered := unionNS(children[s.ID])
		s.SelfNS = s.EndNS - s.StartNS - covered
		if s.Parent == 0 {
			rootNS += s.EndNS - s.StartNS
			coveredNS += covered
		}
	}
	if rootNS > 0 {
		coverage = float64(coveredNS) / float64(rootNS)
	}
	return t.spans, coverage
}

func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

// hooks collects what the traced run learns from callbacks the program
// already offers: per-iteration times from Config.OnIter and per-tile run
// intervals from a TileRunner decorator. Optimizer runs are attributed to
// operations through the layout name, which the harness chooses.
type hooks struct {
	tr *tracer
	on atomic.Bool // off during the untraced comparison phase of a traced run

	mu       sync.Mutex
	owners   map[string][2]int  // layout name -> (op, parent span)
	iterGaps []float64          // seconds between consecutive OnIter callbacks
	inits    []float64          // call -> first callback, minus one median iteration
	runs     map[int][][2]int64 // op -> optimizer run intervals
	tileSecs []float64          // wall of each tile.run
	iters    int
	seeded   int
	nruns    int
}

func newHooks(tr *tracer) *hooks {
	return &hooks{tr: tr, owners: make(map[string][2]int), runs: make(map[int][][2]int64)}
}

// active reports whether optimizer runs should be observed right now.
func (h *hooks) active() bool { return h != nil && h.on.Load() }

// own attributes optimizer runs on the named layout to an operation.
func (h *hooks) own(layout string, op, parent int) {
	h.mu.Lock()
	h.owners[layout] = [2]int{op, parent}
	h.mu.Unlock()
}

// observe runs one optimizer call with an iteration callback installed and
// records its run span, iteration spans and statistics.
func (h *hooks) observe(layout, name string, cfg ilt.Config, run func(ilt.Config) (*ilt.Result, error)) (*ilt.Result, error) {
	var stamps []time.Time
	cfg.OnIter = func(ilt.IterStats) { stamps = append(stamps, time.Now()) }
	start := time.Now()
	res, err := run(cfg)
	end := time.Now()
	if err != nil {
		return nil, err
	}

	h.mu.Lock()
	owner := h.owners[layout]
	h.mu.Unlock()
	id := h.tr.add(name, owner[0], owner[1], start, end)
	prev := start
	for _, s := range stamps {
		h.tr.add("ilt.iter", owner[0], id, prev, s)
		prev = s
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.nruns++
	h.iters += res.Iterations
	if res.Seeded {
		h.seeded++
	}
	if name == "tile.run" {
		h.tileSecs = append(h.tileSecs, end.Sub(start).Seconds())
	}
	h.runs[owner[0]] = append(h.runs[owner[0]], [2]int64{start.UnixNano(), end.UnixNano()})
	var gaps []float64
	for i := 1; i < len(stamps); i++ {
		gaps = append(gaps, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	if len(gaps) > 0 {
		h.iterGaps = append(h.iterGaps, gaps...)
		h.inits = append(h.inits, stamps[0].Sub(start).Seconds()-percentile(gaps, 0.5))
	}
	return res, nil
}

// timingRunner is the TileRunner decorator of the traced run. It sits
// innermost — below the cache and warm-start decorators — so it sees
// exactly the tiles that are really optimized.
type timingRunner struct{ h *hooks }

func (r timingRunner) LocalCompute() bool { return true }

func (r timingRunner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	if !r.h.active() {
		return runWindow(ctx, req, req.Cfg)
	}
	return r.h.observe(req.Plan.Layout.Name, "tile.run", req.Cfg, func(cfg ilt.Config) (*ilt.Result, error) {
		return runWindow(ctx, req, cfg)
	})
}

// runWindow optimizes a request's window in-process, as the scheduler's
// default runner does, under cfg.
func runWindow(ctx context.Context, req *tile.Request, cfg ilt.Config) (*ilt.Result, error) {
	return tile.RunWindow(ctx, req.Sim, cfg, req.Tile.Layout, req.Plan.WindowPx, req.Plan.PixelNM, req.Samples)
}

// counters parses the program's own metric registry (the /metrics text)
// into name -> value; histograms appear as name_sum and name_count.
func counters() map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(mosaic.MetricsText(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// ratio returns num/(num+rest), or 0 when nothing was counted.
func ratio(num, rest float64) float64 {
	if num+rest == 0 {
		return 0
	}
	return num / (num + rest)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSampler reads runtime/metrics at 10 Hz between start and stop.
type runtimeSampler struct {
	samples []metrics.Sample
	first   []float64
	peak    float64
	stop    chan struct{}
	done    chan struct{}
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func (r *runtimeSampler) read() []float64 {
	metrics.Read(r.samples)
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	for _, n := range runtimeNames {
		r.samples = append(r.samples, metrics.Sample{Name: n})
	}
	r.first = r.read()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				if v := r.read()[4]; v > r.peak {
					r.peak = v
				}
			}
		}
	}()
	return r
}

// finish stops sampling and returns allocated bytes, allocated objects,
// the GC share of CPU time, and the peak live heap over the interval.
func (r *runtimeSampler) finish() (allocBytes, allocObjects, gcFraction, heapPeak float64) {
	close(r.stop)
	<-r.done
	last := r.read()
	if last[4] > r.peak {
		r.peak = last[4]
	}
	return last[0] - r.first[0], last[1] - r.first[1],
		div(last[2]-r.first[2], last[3]-r.first[3]), r.peak
}

// layerValues turns the hook observations of the traced phase into the
// ilt.* and tile.* metrics.
func (h *hooks) layerValues(recs []opRecord, spans []span, vals map[string]float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var opNS, busyNS int64
	for _, r := range recs {
		if r.Fail == "" {
			opNS += r.Latency.Nanoseconds()
			busyNS += unionNS(h.runs[r.Index])
		}
	}
	vals["ilt.iter_ms_p50"] = 1e3 * percentile(h.iterGaps, 0.5)
	vals["ilt.init_ms"] = 1e3 * percentile(h.inits, 0.5)
	vals["ilt.iters_per_op"] = div(float64(h.iters), float64(len(latencies(recs, ""))))
	vals["ilt.seeded_ratio"] = div(float64(h.seeded), float64(h.nruns))
	vals["ilt.busy_share"] = div(float64(busyNS), float64(opNS))
	vals["tile.run_ms_p50"] = 1e3 * percentile(h.tileSecs, 0.5)

	// The scheduler's own share of a sharded OptimizeLayout is that span's
	// self time: its wall minus the time at least one tile was running.
	tiled := make(map[int]bool)
	for _, s := range spans {
		if s.Name == "tile.run" {
			tiled[s.Parent] = true
		}
	}
	var overhead []float64
	for _, s := range spans {
		if tiled[s.ID] && s.Name == "mosaic.OptimizeLayout" {
			overhead = append(overhead, float64(s.SelfNS)/1e6)
		}
	}
	vals["tile.overhead_ms"] = mean(overhead)
}
