package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanHierarchy(t *testing.T) {
	buf := NewSpanBuffer(0)
	ctx := ContextWithBuffer(context.Background(), buf)

	ctx, root := StartSpan(ctx, ServeJob, String("job", "j1"))
	cctx, child := StartSpan(ctx, TileOptimize, Int("tile", 2))
	Event(cctx, IltIter, Int("iter", 1), Float("objective", 0.5))
	child.End()
	root.End()

	evs := buf.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	// Spans land in the buffer at End, so innermost-first.
	iter, tile, job := evs[0], evs[1], evs[2]
	if iter.Name != "ilt.iter" || tile.Name != "tile.optimize" || job.Name != "serve.job" {
		t.Fatalf("unexpected event order: %q %q %q", iter.Name, tile.Name, job.Name)
	}
	if job.TraceID == "" || tile.TraceID != job.TraceID || iter.TraceID != job.TraceID {
		t.Errorf("trace IDs diverge: job=%q tile=%q iter=%q", job.TraceID, tile.TraceID, iter.TraceID)
	}
	if job.ParentID != "" {
		t.Errorf("root span has parent %q", job.ParentID)
	}
	if tile.ParentID != job.SpanID {
		t.Errorf("tile parent %q, want job span %q", tile.ParentID, job.SpanID)
	}
	if iter.ParentID != tile.SpanID {
		t.Errorf("iter parent %q, want tile span %q", iter.ParentID, tile.SpanID)
	}
	if !iter.Instant || iter.SpanID != "" {
		t.Errorf("instant event malformed: %+v", iter)
	}
}

// TestRemoteContextAdoptsTrace: a buffer attached under a span of another
// buffer collects the spans started under it, and they join the span's
// trace as its children.
func TestRemoteContextAdoptsTrace(t *testing.T) {
	pctx, parent := StartSpan(ContextWithBuffer(context.Background(), NewSpanBuffer(0)), TileOptimize)
	defer parent.End()

	buf := NewSpanBuffer(0)
	_, sp := StartSpan(ContextWithBuffer(pctx, buf), IltRun)
	sp.End()

	evs := buf.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].TraceID != parent.Context().TraceID {
		t.Errorf("span trace %q, want %q", evs[0].TraceID, parent.Context().TraceID)
	}
	if evs[0].ParentID != parent.Context().SpanID {
		t.Errorf("span parent %q, want %q", evs[0].ParentID, parent.Context().SpanID)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	buf := NewSpanBuffer(0)
	ctx := ContextWithBuffer(context.Background(), buf)
	_, sp := StartSpan(ctx, TileEvaluate)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if again := sp.End(); again != d || d < time.Millisecond {
		t.Errorf("second End returned %v, want the first call's %v", again, d)
	}
	if n := len(buf.Events()); n != 1 {
		t.Fatalf("double End emitted %d events, want 1", n)
	}
}

func TestSpanBufferOverflow(t *testing.T) {
	buf := NewSpanBuffer(4)
	var hooked int
	buf.OnEmit = func(SpanEvent) { hooked++ }
	for i := 0; i < 10; i++ {
		buf.Emit(SpanEvent{Name: "e"})
	}
	if n := len(buf.Events()); n != 4 {
		t.Errorf("%d events held, want 4", n)
	}
	if buf.Dropped() != 6 {
		t.Errorf("Dropped %d, want 6", buf.Dropped())
	}
	if hooked != 10 {
		t.Errorf("OnEmit ran %d times, want 10 (dropped events still stream)", hooked)
	}
}

// TestTraceConcurrency exercises parallel span production against trace
// start/stop churn; run with -race.
func TestTraceConcurrency(t *testing.T) {
	defer StopTrace()
	buf := NewSpanBuffer(0)
	root := ContextWithBuffer(context.Background(), buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, sp := StartSpan(root, TileOptimize, Int("goroutine", g))
				Event(ctx, TileDone, Int("i", i))
				sp.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			StartTrace(io.Discard)
			StopTrace()
		}
	}()
	wg.Wait()
	if n := len(buf.Events()); n != 8*50*2 {
		t.Errorf("buffered %d events, want %d", n, 8*50*2)
	}
}

// TestObserveSpanTrueStart: a span's trace event carries the start the
// span measured and the duration End returned.
func TestObserveSpanTrueStart(t *testing.T) {
	var out syncBuffer
	StartTrace(&out)
	_, sp := StartSpan(context.Background(), IltIteration)
	sp.start = sp.start.Add(-500 * time.Millisecond)
	d := sp.End()
	StopTrace()

	if d < 500*time.Millisecond {
		t.Errorf("End returned %v, want at least the elapsed 500 ms", d)
	}
	ev := traceEvents(t, out.Bytes())[0]
	if int64(ev["ts"].(float64)) != sp.start.UnixMicro() {
		t.Errorf("ts %v, want the measured start %d", ev["ts"], sp.start.UnixMicro())
	}
	if int64(ev["dur"].(float64)) != d.Microseconds() {
		t.Errorf("dur %v, want %d", ev["dur"], d.Microseconds())
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes the trace
// encoder may issue.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

func TestTraceFileCarriesIDs(t *testing.T) {
	var out syncBuffer
	StartTrace(&out)
	ctx, sp := StartSpan(context.Background(), IltRun, String("k", "v"))
	Event(ctx, IltIter)
	sp.End()
	StopTrace()

	evs := traceEvents(t, out.Bytes())
	if len(evs) != 2 {
		t.Fatalf("got %d trace events, want 2", len(evs))
	}
	mark, span := evs[0]["args"].(map[string]any), evs[1]["args"].(map[string]any)
	if evs[0]["ph"] != "i" || evs[1]["ph"] != "X" {
		t.Errorf("phases %q/%q, want i/X", evs[0]["ph"], evs[1]["ph"])
	}
	if span["trace_id"] == nil || span["trace_id"] != mark["trace_id"] {
		t.Errorf("trace IDs %q vs %q", span["trace_id"], mark["trace_id"])
	}
	if mark["parent_id"] != span["span_id"] {
		t.Errorf("instant parent %q, want %q", mark["parent_id"], span["span_id"])
	}
	if span["k"] != "v" {
		t.Errorf("span args %v, want k=v", span)
	}
}

func TestPerfettoTrace(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	evs := []SpanEvent{
		{Name: "serve.job", TraceID: "t1", SpanID: "s1", Start: base, Dur: 3 * time.Second},
		{Name: "tile.optimize", TraceID: "t1", SpanID: "s2", ParentID: "s1",
			Start: base.Add(time.Second), Dur: time.Second, Attrs: []Attr{Int("tile", 2)}},
		{Name: "ilt.iter", TraceID: "t1", ParentID: "s2", Start: base.Add(1500 * time.Millisecond),
			Instant: true, Attrs: []Attr{Int("iter", 7), Float("objective", 0.25)}},
	}
	raw := PerfettoTrace("mosaicd", evs)

	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			Dur   int64          `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, raw)
	}
	if doc.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayUnit)
	}
	// 1 metadata lane + 3 events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4:\n%s", len(doc.TraceEvents), raw)
	}
	if lane := doc.TraceEvents[0]; lane.Phase != "M" || lane.Name != "process_name" || lane.PID != 1 || lane.Args["name"] != "mosaicd" {
		t.Errorf("first event %+v, want the process lane mosaicd on pid 1", lane)
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents[1:] {
		if ev.PID != 1 {
			t.Errorf("event %q on pid %d, want 1", ev.Name, ev.PID)
		}
		byName[ev.Name] = i + 1
	}

	job := doc.TraceEvents[byName["serve.job"]]
	if job.Phase != "X" || job.Dur != 3_000_000 {
		t.Errorf("serve.job event wrong: %+v", job)
	}
	if job.Args["trace_id"] != "t1" || job.Args["span_id"] != "s1" {
		t.Errorf("serve.job args missing IDs: %v", job.Args)
	}
	opt := doc.TraceEvents[byName["tile.optimize"]]
	if opt.TID != 3 {
		t.Errorf("tile.optimize on tid %d, want 3 (tile 2 + 1)", opt.TID)
	}
	if opt.Args["parent_id"] != "s1" {
		t.Errorf("tile.optimize args %v, want parent_id s1", opt.Args)
	}
	it := doc.TraceEvents[byName["ilt.iter"]]
	if it.Phase != "i" || it.Scope != "t" || it.Dur != 0 {
		t.Errorf("instant event wrong: %+v", it)
	}
	if it.Args["objective"] != 0.25 || it.Args["iter"] != float64(7) {
		t.Errorf("instant args %v", it.Args)
	}

	// Determinism: a second export of the same events is byte-identical.
	if again := PerfettoTrace("mosaicd", evs); !bytes.Equal(raw, again) {
		t.Error("PerfettoTrace output is not deterministic")
	}
}

func TestBuildInfo(t *testing.T) {
	bi := ReadBuild()
	if bi.GoVersion == "" {
		t.Error("BuildInfo.GoVersion empty")
	}
	if s := bi.String(); !strings.Contains(s, "mosaic") {
		t.Errorf("BuildInfo.String() = %q", s)
	}
	var buf bytes.Buffer
	WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "mosaic_build_info") {
		t.Error("/metrics output missing mosaic_build_info")
	}
}
