package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// runSet is the file `run` writes and `compare` reads: every run of every
// workload, one per seed.
type runSet struct {
	Runs []runEntry `json:"runs"`
}

type runEntry struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// runAllMain runs every workload once per seed, each in a fresh process
// exactly as the driver would, and writes the results as one run set.
func runAllMain(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seeds := fs.String("seeds", "1", "comma-separated workload seeds, one run per seed")
	only := fs.String("workloads", "", "comma-separated workloads (default: all)")
	trace := fs.Int("trace", 0, "0: untraced runs, 1: traced runs")
	secs := fs.Float64("seconds", runSeconds, "length of each measured phase")
	out := fs.String("out", "", "file to write the run set to (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var set runSet
	for _, w := range workloads {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.Name+",") {
			continue
		}
		for _, s := range strings.Split(*seeds, ",") {
			seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark run: bad seed:", err)
				return 2
			}
			var res result
			err = runChild(options{workload: w.Name, seed: seed, out: defaultOut}, nil, &res,
				"--trace", strconv.Itoa(*trace), "--seconds", strconv.FormatFloat(*secs, 'g', -1, 64))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark run: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", w.Name, seed, res.Correct, res.Attempted, res.Failed)
			set.Runs = append(set.Runs, runEntry{w.Name, seed, *trace != 0, res})
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark run:", err)
		return 1
	}
	if *out == "" {
		os.Stdout.Write(append(data, '\n'))
		return 0
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark run:", err)
		return 1
	}
	return 0
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the
// estimator the driver uses. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares one end-to-end metric between a parent run set A and a
// change B. worse is the relative change of the median in the metric's bad
// direction; spread is the wider of the two sides' interquartile range
// over its median.
func verdict(m metricSpec, a, b []float64) (medA, medB, worse, spread float64, v string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	spread = max(div(q3a-q1a, medA), div(q3b-q1b, medB))
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse = sign * div(medB-medA, medA)
	// every run of one side reads better than every run of the other
	allBetter := func(x, y []float64) bool {
		for _, xv := range x {
			for _, yv := range y {
				if sign*(xv-yv) >= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case worse > m.Bound && (spread <= m.Bound || allBetter(a, b)):
		v = "regressed"
	case spread > m.Bound && !allBetter(b, a):
		v = "unresolved"
	default:
		v = "ok"
	}
	return medA, medB, worse, spread, v
}

// compareMain prints one row per workload and end-to-end metric and exits
// non-zero when any row regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var sets [2]map[string]map[string][]float64 // workload -> metric -> values
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		var set runSet
		if err := json.Unmarshal(data, &set); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", path, err)
			return 2
		}
		sets[i] = make(map[string]map[string][]float64)
		for _, r := range set.Runs {
			if r.Trace {
				continue
			}
			if !r.Result.Correct {
				fmt.Fprintf(os.Stderr, "benchmark compare: %s: %s seed %d is not a correct run\n", path, r.Workload, r.Seed)
				return 2
			}
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Result.Metrics {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], m.Value)
			}
		}
	}
	regressed := false
	fmt.Printf("%-12s %-20s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][w.Name][m.Name], sets[1][w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			medA, medB, worse, spread, v := verdict(m, a, b)
			fmt.Printf("%-12s %-20s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, medA, medB, 100*worse, 100*spread, 100*m.Bound, v)
			regressed = regressed || v == "regressed"
		}
	}
	if regressed {
		return 1
	}
	return 0
}
