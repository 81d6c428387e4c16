package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The registry maps metric names to their instruments. Constructors are
// get-or-create so package-level metrics and tests can share names; a name
// registered as one kind cannot be re-registered as another.
var (
	regMu sync.Mutex
	reg   = map[string]any{}
)

// register returns the existing metric for name or creates one with mk.
func register[T any](name string, mk func() T) T {
	regMu.Lock()
	defer regMu.Unlock()
	if v, ok := reg[name]; ok {
		t, ok := v.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, v))
		}
		return t
	}
	t := mk()
	reg[name] = t
	return t
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// NewCounter returns the counter registered under name, creating it on
// first use. Counter names conventionally end in _total.
func NewCounter(name string) *Counter {
	return register(name, func() *Counter { return &Counter{} })
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// NewGauge returns the gauge registered under name, creating it on first
// use.
func NewGauge(name string) *Gauge {
	return register(name, func() *Gauge { return &Gauge{} })
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Info is a constant gauge of value 1 whose labels carry the payload — the
// Prometheus idiom for build/runtime metadata (e.g. mosaic_build_info).
type Info struct{ labels map[string]string }

// NewInfo returns the info metric registered under name, creating it with
// the given labels on first use. Labels are fixed at creation.
func NewInfo(name string, labels map[string]string) *Info {
	return register(name, func() *Info {
		cp := make(map[string]string, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		return &Info{labels: cp}
	})
}

// labelString renders the label set in Prometheus {k="v",...} form, in
// key order.
func (i *Info) labelString() string {
	keys := make([]string, 0, len(i.labels))
	for k := range i.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for j, k := range keys {
		if j > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, i.labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics); an implicit +Inf bucket catches the
// rest. Observation is lock-free: a binary search plus two atomic adds.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefaultTimeBuckets spans 100 µs to 100 s logarithmically — wide enough
// for a single FFT up to a full optimization run.
var DefaultTimeBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// NewHistogram returns the histogram registered under name, creating it
// with the given ascending upper bounds on first use (DefaultTimeBuckets
// when none are given).
func NewHistogram(name string, bounds ...float64) *Histogram {
	return register(name, func() *Histogram {
		if len(bounds) == 0 {
			bounds = DefaultTimeBuckets
		}
		b := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(b) {
			panic(fmt.Sprintf("obs: histogram %q bounds are not ascending: %v", name, b))
		}
		return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	})
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and the per-bucket (non-cumulative)
// counts; the final count is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// WriteMetrics dumps every registered metric in Prometheus text format,
// sorted by name. Histograms emit cumulative _bucket series plus _sum and
// _count.
func WriteMetrics(w io.Writer) error {
	regMu.Lock()
	names := make([]string, 0, len(reg))
	vars := make(map[string]any, len(reg))
	for n, v := range reg {
		names = append(names, n)
		vars[n] = v
	}
	regMu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		var err error
		switch v := vars[n].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, v.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, v.Value())
		case *Info:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s%s 1\n", n, n, v.labelString())
		case *Histogram:
			bounds, counts := v.Buckets()
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
				return err
			}
			cum := int64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(bounds) {
					le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", n, v.Sum(), n, v.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MetricsText returns the WriteMetrics dump as a string.
func MetricsText() string {
	var sb strings.Builder
	WriteMetrics(&sb)
	return sb.String()
}
