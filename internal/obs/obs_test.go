package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
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
	if g.String() != "3.5" {
		t.Fatalf("gauge String = %q", g.String())
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
	sp := Span("test.span")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration %v too short", d)
	}
	h := NewHistogram("span_test_span_seconds")
	if h.Count() < 1 {
		t.Fatal("span did not record into its histogram")
	}
	ObserveSpan("test.span", time.Now().Add(-2*time.Millisecond), 2*time.Millisecond)
	if h.Count() < 2 {
		t.Fatal("ObserveSpan did not record")
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	StartTrace(&buf)
	sp := Span("trace.one")
	time.Sleep(time.Millisecond)
	sp.End()
	ObserveSpan("trace.two", time.Now().Add(-5*time.Millisecond), 5*time.Millisecond)
	if err := StopTrace(); err != nil {
		t.Fatal(err)
	}
	// A span ended after StopTrace must not be emitted.
	Span("trace.late").End()

	var events []TraceEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want 2: %+v", len(events), events)
	}
	if events[0].Name != "trace.one" || events[1].Name != "trace.two" {
		t.Fatalf("event names: %+v", events)
	}
	if events[0].DurUS < 1000 {
		t.Fatalf("trace.one duration %d µs, want >= 1000", events[0].DurUS)
	}
	if events[1].DurUS != 5000 {
		t.Fatalf("trace.two duration %d µs, want 5000", events[1].DurUS)
	}
	for _, ev := range events {
		if ev.StartUS <= 0 {
			t.Fatalf("event %q has non-positive start %d", ev.Name, ev.StartUS)
		}
	}
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
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["test_http_total"]; !ok {
		t.Fatal("/debug/vars missing published metric")
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
