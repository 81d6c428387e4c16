package obs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter("test_concurrent_total")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// Get-or-create: same name returns the same counter.
	if NewCounter("test_concurrent_total") != c {
		t.Fatal("NewCounter did not return the registered instance")
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge("test_gauge")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("test_hist_bounds", 1, 2, 5)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets: bounds %v counts %v", bounds, counts)
	}
	// Inclusive upper bounds (le semantics): 1 lands in the le=1 bucket,
	// 2 in le=2, 10 in +Inf.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 18 {
		t.Fatalf("sum = %g, want 18", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("test_hist_concurrent", 0.5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(w % 2)) // alternate buckets across goroutines
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 2000 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestWriteMetricsPrometheusFormat(t *testing.T) {
	NewCounter("test_dump_total").Add(7)
	NewGauge("test_dump_gauge").Set(2.5)
	NewHistogram("test_dump_seconds", 1, 10).Observe(0.5)
	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, want := range []string{
		"# TYPE test_dump_total counter\ntest_dump_total 7\n",
		"# TYPE test_dump_gauge gauge\ntest_dump_gauge 2.5\n",
		"# TYPE test_dump_seconds histogram\n",
		`test_dump_seconds_bucket{le="1"} 1`,
		`test_dump_seconds_bucket{le="10"} 1`, // cumulative
		`test_dump_seconds_bucket{le="+Inf"} 1`,
		"test_dump_seconds_sum 0.5",
		"test_dump_seconds_count 1",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q\ndump:\n%s", want, dump)
		}
	}
	if MetricsText() == "" {
		t.Fatal("MetricsText empty")
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	NewCounter("test_kind_total")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	NewGauge("test_kind_total")
}

func TestSpanFeedsHistogram(t *testing.T) {
	h := IltTrackMetrics.hist
	if h != NewHistogram("span_ilt_track_metrics_seconds") {
		t.Fatal("span histogram is not registered under span_<name>_seconds")
	}
	before := h.Count()
	_, sp := StartSpan(context.Background(), IltTrackMetrics)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration %v too short", d)
	}
	if h.Count() != before+1 {
		t.Fatal("span did not record into its histogram")
	}
}

// traceEvents decodes a closed trace file — a Perfetto trace_event JSON
// array — into its span and instant events, the lane records left out.
func traceEvents(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var all []map[string]any
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	var evs []map[string]any
	for _, ev := range all {
		if ev["ph"] != "M" {
			evs = append(evs, ev)
		}
	}
	return evs
}

func TestTraceFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	StartTrace(&buf)
	_, sp := StartSpan(context.Background(), OpticsBuildKernels)
	time.Sleep(time.Millisecond)
	sp.End()
	_, sp = StartSpan(context.Background(), IltIteration)
	sp.End()
	if err := StopTrace(); err != nil {
		t.Fatal(err)
	}
	// A span ended after StopTrace must not be emitted.
	_, sp = StartSpan(context.Background(), IltRun)
	sp.End()

	events := traceEvents(t, buf.Bytes())
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want 2: %+v", len(events), events)
	}
	if events[0]["name"] != "optics.build_kernels" || events[1]["name"] != "ilt.iteration" {
		t.Fatalf("event names: %+v", events)
	}
	if events[0]["dur"].(float64) < 1000 {
		t.Fatalf("first span duration %v µs, want >= 1000", events[0]["dur"])
	}
	for _, ev := range events {
		if ev["ts"].(float64) <= 0 || ev["ph"] != "X" {
			t.Fatalf("event %q: start %v, phase %v", ev["name"], ev["ts"], ev["ph"])
		}
	}
}

// TestTraceLineGolden pins the one encoding a -trace file and a job's
// GET /v1/jobs/{id}/trace share: the array brackets on lines of their own,
// the process lane declared where it first appears, then one event a line.
func TestTraceLineGolden(t *testing.T) {
	start := time.UnixMicro(1_700_000_000_000_123)
	var out bytes.Buffer
	p := newPerfettoWriter(&out, "mosaic")
	p.event(SpanEvent{Name: "tile.optimize", TraceID: "t1", SpanID: "s2", ParentID: "s1", Start: start,
		Dur: 1500 * time.Microsecond, Attrs: []Attr{Int("tile", 2), String("tile.cache", "miss")}})
	p.event(SpanEvent{Name: "ilt.iter", TraceID: "t1", ParentID: "s2", Start: start, Instant: true,
		Attrs: []Attr{Float("objective", 0.25)}})
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	want := `[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"mosaic"}},
{"name":"tile.optimize","ph":"X","ts":1700000000000123,"dur":1500,"pid":1,"tid":3,"args":{"parent_id":"s1","span_id":"s2","tile":2,"tile.cache":"miss","trace_id":"t1"}},
{"name":"ilt.iter","ph":"i","ts":1700000000000123,"pid":1,"tid":0,"s":"t","args":{"objective":0.25,"parent_id":"s2","trace_id":"t1"}}
]
`
	if out.String() != want {
		t.Errorf("trace\n got %s\nwant %s", out.String(), want)
	}
}

// failAfter accepts n bytes, then fails every write: a disk that fills up.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w := f.n
		f.n = 0
		return w, errors.New("no space left on device")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestTraceWriteErrorIsReturned: a trace sink that stops taking bytes is
// not a whole trace; StopTrace says so with the sink's first error.
func TestTraceWriteErrorIsReturned(t *testing.T) {
	StartTrace(&failAfter{n: 100})
	for i := 0; i < 4; i++ {
		_, sp := StartSpan(context.Background(), IltIteration)
		sp.End()
	}
	if err := StopTrace(); err == nil || !strings.Contains(err.Error(), "no space") {
		t.Errorf("StopTrace after a failed write returned %v, want the write error", err)
	}
	// A trace whose sink took every byte closes cleanly.
	StartTrace(io.Discard)
	if err := StopTrace(); err != nil {
		t.Errorf("StopTrace of a whole trace: %v", err)
	}
}

// countingReader counts the reads that reach crypto/rand.
type countingReader struct {
	r io.Reader
	n *int
}

func (c countingReader) Read(p []byte) (int, error) { *c.n++; return c.r.Read(p) }

// TestUnobservedSpanIsATimer holds the hot-loop cost down: with no buffer
// on the context and no sink, a span is one allocation, reads no random
// bytes and leaves the context alone.
func TestUnobservedSpanIsATimer(t *testing.T) {
	reads := 0
	defer func(r io.Reader) { rand.Reader = r }(rand.Reader)
	rand.Reader = countingReader{rand.Reader, &reads}

	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, SimAerial[PlaneOf("nominal")])
		if c != ctx || sp.Context() != (TraceContext{}) {
			t.Fatal("an unobserved span derived a context or drew IDs")
		}
		sp.End()
	})
	if allocs > 1 {
		t.Errorf("unobserved StartSpan+End allocates %v times, want at most 1 (the span)", allocs)
	}
	if reads != 0 {
		t.Errorf("unobserved spans read crypto/rand %d times", reads)
	}
	// Under a buffer the same call is observed: IDs, a derived context.
	c, sp := StartSpan(ContextWithBuffer(ctx, NewSpanBuffer(0)), SimAerial[PlaneOf("nominal")])
	if c == ctx || len(sp.Context().SpanID) != 16 || reads == 0 {
		t.Errorf("a span under a buffer was not observed (%d reads of crypto/rand)", reads)
	}
	sp.End()
}

func TestServeDebugEndpoints(t *testing.T) {
	NewCounter("test_http_total").Inc()
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "test_http_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: logLevel})))
	defer SetLogger(nil)

	SetLogLevel(slog.LevelWarn)
	Logger().Info("hidden")
	Logger().Warn("visible")
	SetLogLevel(slog.LevelDebug)
	Logger().Debug("debug-visible")

	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatal("info logged at warn level")
	}
	if !strings.Contains(out, "visible") || !strings.Contains(out, "debug-visible") {
		t.Fatalf("expected messages missing:\n%s", out)
	}
}

// TestReadmeDocumentsNames pins the README "Span and event names" table to
// the name table: every name the program can emit is a row of the right
// kind, and every row is a name the program can emit.
func TestReadmeDocumentsNames(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README: %v", err)
	}
	_, section, ok := strings.Cut(string(raw), "### Span and event names")
	if !ok {
		t.Fatal(`README has no "### Span and event names" section`)
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i] // the table ends at the next heading
	}
	docs := map[string]string{} // name -> kind
	row := regexp.MustCompile("(?m)^\\| `([a-z_.]+)(\\.<plane>)?` \\| (span|instant) \\|")
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if m[2] == "" {
			docs[m[1]] = m[3]
			continue
		}
		for _, label := range planeLabels {
			if !strings.Contains(section, "`"+label+"`") {
				t.Errorf("README does not list the plane label %q", label)
			}
			docs[m[1]+"."+label] = m[3]
		}
	}
	if len(docs) == 0 {
		t.Fatal("README name table has no parseable rows")
	}
	for _, n := range names {
		kind := "instant"
		if n.hist != nil {
			kind = "span"
		}
		if docs[n.name] != kind {
			t.Errorf("%s %q is in the obs name table but the README table says %q", kind, n.name, docs[n.name])
		}
		delete(docs, n.name)
	}
	for name := range docs {
		t.Errorf("README documents %q but the obs name table has no such name", name)
	}
}
