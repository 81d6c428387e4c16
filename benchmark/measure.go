package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// opRecord is one attempted operation of a measured phase.
type opRecord struct {
	Index      int
	Start, End time.Duration // since the phase began
	// HostSpeed is how fast the host ran the reference kernel around the
	// operation, no less than minCorrection of the phase's best (calib.go);
	// 1 in a phase that does not calibrate.
	HostSpeed float64
	opResult
	Fail string // empty when the operation succeeded and checked out
}

// phase describes one measured phase: operations First, First+1, ... of
// the seeded schedule, run by Clients closed-loop callers. It ends at the
// first whole number of blocks (of Block operations, at least MinOps in
// all) at which Dur has passed, or at MaxOps if that is not 0.
type phase struct {
	Clients int
	First   int
	Block   int
	MinOps  int
	MaxOps  int
	Dur     time.Duration
	// Calibrate measures the host speed next to the operations (calib.go):
	// after every operation of one caller. Several callers leave no moment
	// at which the reference would not compete with the program's own
	// work, so their phase drains at every block boundary and the host
	// speed is measured there.
	Calibrate bool
}

// run returns the phase's operations in index order with the wall time
// from the first start to the last end. Callers take the next index from a
// shared counter, so the operations run are always a prefix of the seeded
// schedule, and with Block the schedule's own block length a prefix made
// of whole blocks.
func (p phase) run(w workload) ([]opRecord, time.Duration) {
	var (
		mu       sync.Mutex
		idle     = sync.NewCond(&mu)
		next     int
		inFlight int
		ended    bool
		recs     []opRecord
		bounds   []float64 // host speed at each block boundary reached
		wg       sync.WaitGroup
	)
	ref := newRefKernel()
	perOp := p.Calibrate && p.Clients == 1
	perBlock := p.Calibrate && !perOp
	start := time.Now()
	// take hands out the next index, or false once the phase has ended.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// At a block boundary, let the block drain so that the reference
		// has the machine; whoever gets there first measures.
		for perBlock && next%p.Block == 0 && inFlight > 0 {
			idle.Wait()
		}
		if next%p.Block == 0 {
			if perBlock && len(bounds) == next/p.Block {
				bounds = append(bounds, ref.idleSpeed())
			}
			if next >= p.MinOps && (time.Since(start) >= p.Dur || (p.MaxOps > 0 && next >= p.MaxOps)) {
				ended = true
			}
		}
		if ended {
			return 0, false
		}
		next++
		inFlight++
		return next - 1, true
	}
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				n, ok := take()
				if !ok {
					return
				}
				rec := opRecord{Index: p.First + n, Start: time.Since(start), HostSpeed: 1}
				res, err := w.Op(rec.Index, client)
				rec.opResult, rec.End = res, time.Since(start)
				if err != nil {
					rec.Fail = err.Error()
				}
				if perOp {
					rec.HostSpeed = ref.hostSpeed()
				}
				mu.Lock()
				recs = append(recs, rec)
				if inFlight--; inFlight == 0 {
					idle.Broadcast()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	var wall time.Duration
	for _, r := range recs {
		wall = max(wall, r.End)
	}
	switch {
	case perOp:
		// One caller: index order is time order. An operation is charged
		// the median of the reference runs before it, after it and after
		// the next one, so that a hiccup that struck only the reference
		// does not pass for a slow host.
		raw := make([]float64, len(recs))
		for i, r := range recs {
			raw[i] = r.HostSpeed
		}
		for i := range recs {
			recs[i].HostSpeed = percentile(raw[max(i-1, 0):min(i+2, len(raw))], 0.5)
		}
	case perBlock:
		// A block's operations are charged the mean of the host speeds at
		// its two ends.
		for i := range recs {
			k := i / p.Block
			recs[i].HostSpeed = (bounds[k] + bounds[k+1]) / 2
		}
	}
	best := 0.0
	for _, r := range recs {
		best = max(best, r.HostSpeed)
	}
	for i := range recs {
		recs[i].HostSpeed = max(recs[i].HostSpeed, minCorrection*best)
	}
	return recs, wall
}

// verify runs every operation's deferred check; a failed check fails the
// operation like an error would have.
func verify(recs []opRecord) {
	for i := range recs {
		r := &recs[i]
		if r.Fail == "" && r.Check != nil {
			if err := r.Check(); err != nil {
				r.Fail = err.Error()
			}
		}
		r.Check = nil
	}
}

// percentile returns the p-quantile (0..1) of vals by linear
// interpolation between order statistics; 0 for no samples.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// latencies returns the latency in seconds of every successful operation,
// optionally of one class only. Failed operations have no latency: they
// count against attempted and miss every latency figure.
func latencies(recs []opRecord, class string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Fail == "" && (class == "" || r.Class == class) {
			out = append(out, r.Latency.Seconds())
		}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult builds a result holding exactly the metrics of specs, taking
// each value from vals (a metric the run did not measure reports 0). A
// value under a name specs does not declare is a bug in the harness.
func newResult(specs []metricSpec, vals map[string]float64, recs []opRecord, globalErr error) (result, error) {
	res := result{Attempted: len(recs), Metrics: make(map[string]metric, len(specs))}
	for _, r := range recs {
		if r.Fail != "" {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && globalErr == nil
	for _, m := range specs {
		res.Metrics[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("metric %q is measured but not declared in spec.go", name)
		}
	}
	return res, nil
}

// calibrated is an operation's latency in calibrated seconds: what it
// would have taken had the host run at its nominal speed (calib.go).
func (r *opRecord) calibrated() float64 { return r.Latency.Seconds() * r.HostSpeed }

// inputLatencies charges every successful operation the best calibrated
// latency its input (opResult.Key) reached in the phase and returns one
// value per operation; a phase is whole blocks, so every input ran equally
// often. The percentiles over these values show how latency is spread over
// the workload's inputs, weighted by how often each is run.
func inputLatencies(recs []opRecord) []float64 {
	best := make(map[string]float64)
	for _, r := range recs {
		if l, ok := best[r.Key]; r.Fail == "" && (!ok || r.calibrated() < l) {
			best[r.Key] = r.calibrated()
		}
	}
	var out []float64
	for _, r := range recs {
		if r.Fail == "" {
			out = append(out, best[r.Key])
		}
	}
	return out
}

// blockThroughputs returns, for each block of the phase, its successful
// operations per calibrated second: per second of the window from the
// moment the block's first operation was taken to the moment the next
// block's was (the end of the phase for the last block), over the median
// host speed its operations saw.
func blockThroughputs(recs []opRecord, block int, wall time.Duration) []float64 {
	var out []float64
	for lo := 0; lo < len(recs); lo += block {
		hi := min(lo+block, len(recs))
		end := wall
		if hi < len(recs) {
			end = recs[hi].Start
		}
		var speeds []float64
		for _, r := range recs[lo:hi] {
			speeds = append(speeds, r.HostSpeed)
		}
		perSec := float64(len(latencies(recs[lo:hi], ""))) / (end - recs[lo].Start).Seconds()
		out = append(out, perSec/percentile(speeds, 0.5))
	}
	return out
}

// endToEndValues computes the user-visible metrics of an untraced phase.
// The quality means cover exactly the first spec.minOps() operations.
func endToEndValues(spec *workloadSpec, recs []opRecord, wall time.Duration, setupSec float64) map[string]float64 {
	lat := inputLatencies(recs)
	var scores, bands []float64
	for _, r := range recs {
		if r.Index < spec.minOps() && r.Fail == "" {
			scores = append(scores, r.Score)
			bands = append(bands, r.PVB)
		}
	}
	return map[string]float64{
		"setup_s":            setupSec,
		"solve_p50_s":        percentile(lat, 0.5),
		"solve_tail_s":       percentile(lat, spec.TailPct),
		"throughput_per_s":   percentile(blockThroughputs(recs, spec.Block, wall), 1),
		"quality_score_mean": mean(scores),
		"pvband_nm2_mean":    mean(bands),
	}
}

// describe prints the human-readable report that precedes the JSON line.
func describe(spec *workloadSpec, specs []metricSpec, res result, recs []opRecord, wall time.Duration) {
	fmt.Printf("workload %s: %d ops attempted, %d failed, measured phase %.2f s, solve_tail_s is p%.0f, quality over the first %d ops\n",
		spec.Name, res.Attempted, res.Failed, wall.Seconds(), 100*spec.TailPct, spec.minOps())
	for _, r := range recs {
		if r.Fail != "" {
			fmt.Printf("  FAILED op %d %s: %s\n", r.Index, r.Class, r.Fail)
		}
	}
	for _, m := range specs {
		line := fmt.Sprintf("  %-32s %14.6g %-6s (%s is better", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better)
		if m.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", 100*m.Bound)
		}
		fmt.Println(line + ")")
	}
}

// describeInputs prints what the timing metrics were taken from, in wall
// seconds: per input, how often it ran and its best, median and worst
// latency; the wall-clock figures the calibrated metrics stand for; and the
// host speeds seen.
func describeInputs(spec *workloadSpec, recs []opRecord, wall time.Duration) {
	byKey := make(map[string][]float64)
	var speeds []float64
	for _, r := range recs {
		if r.Fail == "" {
			byKey[r.Key] = append(byKey[r.Key], r.Latency.Seconds())
			speeds = append(speeds, r.HostSpeed)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("  wall-clock latency per input (s): runs     best   median    worst")
	for _, k := range keys {
		lat := byKey[k]
		fmt.Printf("    %-28s %6d %8.4f %8.4f %8.4f\n", k, len(lat), percentile(lat, 0), percentile(lat, 0.5), percentile(lat, 1))
	}
	lat := latencies(recs, "")
	fmt.Printf("  wall clock, all operations: p50 %.4f s, p%.0f %.4f s, %.3f 1/s over the whole phase\n",
		percentile(lat, 0.5), 100*spec.TailPct, percentile(lat, spec.TailPct), float64(len(lat))/wall.Seconds())
	fmt.Printf("  calibrated throughput per block of %d ops (1/s): %.3f\n", spec.Block, blockThroughputs(recs, spec.Block, wall))
	fmt.Printf("  host speed next to the operations (1 = quiet sandbox): min %.2f, median %.2f, max %.2f\n",
		percentile(speeds, 0), percentile(speeds, 0.5), percentile(speeds, 1))
}

// writeOps keeps the untraced phase's raw material next to the traces, one
// record per operation in wall seconds, for whoever wants to look behind
// the calibrated figures.
func writeOps(dir, workload string, recs []opRecord) error {
	type op struct {
		Index     int     `json:"index"`
		Input     string  `json:"input"`
		StartS    float64 `json:"start_s"`
		LatencyS  float64 `json:"latency_s"`
		HostSpeed float64 `json:"host_speed"`
		Failed    string  `json:"failed,omitempty"`
	}
	ops := make([]op, len(recs))
	for i, r := range recs {
		ops[i] = op{r.Index, r.Key, r.Start.Seconds(), r.Latency.Seconds(), r.HostSpeed, r.Fail}
	}
	data, err := json.Marshal(ops)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ops_"+workload+".json"), data, 0o644)
}
