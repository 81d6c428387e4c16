package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceContext identifies a position in a distributed trace: the trace the
// work belongs to, the span doing the work, and that span's parent. IDs are
// lowercase hex (W3C trace-context sizes: 16-byte trace ID, 8-byte span ID).
type TraceContext struct {
	TraceID  string
	SpanID   string
	ParentID string
}

// Traceparent renders the context as a W3C traceparent header value:
// "00-<trace-id>-<span-id>-01".
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. The parsed span ID
// becomes the ParentID of any span started under the returned context.
func ParseTraceparent(s string) (TraceContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return TraceContext{}, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	for _, p := range parts[:3] {
		if _, err := hex.DecodeString(p); err != nil {
			return TraceContext{}, fmt.Errorf("obs: malformed traceparent %q: %w", s, err)
		}
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return TraceContext{}, fmt.Errorf("obs: all-zero traceparent %q", s)
	}
	return TraceContext{TraceID: parts[1], SpanID: parts[2]}, nil
}

func newID(bytes int) string {
	b := make([]byte, bytes)
	rand.Read(b) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b)
}

// Attr is one key/value attribute attached to a span or event. Values are
// strings, int64s, or float64s.
type Attr struct {
	Key   string
	Value any
}

// String makes a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int makes an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: int64(value)} }

// Float makes a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// AttrMap flattens attributes into a map for JSON encoding.
func AttrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// SpanEvent is one completed span or instant event in a trace. Instant
// events have Instant=true, zero Dur, and an empty SpanID; their ParentID
// is the span they occurred under.
type SpanEvent struct {
	Name     string
	TraceID  string
	SpanID   string
	ParentID string
	Start    time.Time
	Dur      time.Duration
	Instant  bool
	Attrs    []Attr
}

// SpanBuffer collects the SpanEvents of one trace (or one process's share
// of it). It is safe for concurrent use. When the buffer is full, further
// events increment a drop counter instead of growing it, so a runaway
// iteration loop cannot exhaust memory.
type SpanBuffer struct {
	mu      sync.Mutex
	events  []SpanEvent
	max     int
	dropped int64

	// OnEmit, when set before the buffer is shared, is called outside the
	// buffer lock for every event added (including dropped ones) — the live
	// streaming hook for SSE fan-out.
	OnEmit func(SpanEvent)
}

// NewSpanBuffer returns a buffer retaining at most max events
// (DefaultSpanBufferCap when max <= 0).
func NewSpanBuffer(max int) *SpanBuffer {
	if max <= 0 {
		max = DefaultSpanBufferCap
	}
	return &SpanBuffer{max: max}
}

// DefaultSpanBufferCap bounds per-trace span retention.
const DefaultSpanBufferCap = 4096

// Emit appends ev to the buffer (or counts it as dropped when full) and
// invokes the OnEmit hook.
func (b *SpanBuffer) Emit(ev SpanEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if len(b.events) < b.max {
		b.events = append(b.events, ev)
	} else {
		b.dropped++
	}
	hook := b.OnEmit
	b.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// Events returns a copy of the buffered events.
func (b *SpanBuffer) Events() []SpanEvent {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]SpanEvent(nil), b.events...)
}

// Len returns the number of buffered events.
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Dropped returns how many events were discarded because the buffer was
// full.
func (b *SpanBuffer) Dropped() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

type traceCtxKey struct{}
type spanBufKey struct{}
type activeSpanKey struct{}

// ContextWithBuffer attaches a SpanBuffer to ctx. Spans started under the
// returned context (and their descendants) are collected into buf.
func ContextWithBuffer(ctx context.Context, buf *SpanBuffer) context.Context {
	return context.WithValue(ctx, spanBufKey{}, buf)
}

// ContextWithRemote adopts a trace context received from another process
// (e.g. a parsed traceparent header) and collects local spans into buf.
// Spans started under the returned context become children of tc's span in
// tc's trace.
func ContextWithRemote(ctx context.Context, tc TraceContext, buf *SpanBuffer) context.Context {
	ctx = context.WithValue(ctx, traceCtxKey{}, tc)
	return context.WithValue(ctx, spanBufKey{}, buf)
}

// ContextTrace returns the current trace position in ctx, if any.
func ContextTrace(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// ContextBuffer returns the SpanBuffer attached to ctx, if any.
func ContextBuffer(ctx context.Context) *SpanBuffer {
	buf, _ := ctx.Value(spanBufKey{}).(*SpanBuffer)
	return buf
}

// ActiveSpan is a started hierarchical span; finish it with End.
type ActiveSpan struct {
	name  string
	tc    TraceContext
	buf   *SpanBuffer
	hist  *Histogram
	start time.Time
	attrs []Attr
	ended bool
}

// StartSpan starts a named span under ctx. If ctx already carries a trace,
// the span joins it as a child of the current span; otherwise it roots a
// new trace. The returned context carries the new span, so descendants
// nest under it. Like obs.Span, the duration feeds span_<name>_seconds on
// End; additionally the completed span lands in the context's SpanBuffer
// and the JSONL trace.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *ActiveSpan) {
	parent, _ := ContextTrace(ctx)
	tc := TraceContext{TraceID: parent.TraceID, ParentID: parent.SpanID, SpanID: newID(8)}
	if tc.TraceID == "" {
		tc.TraceID = newID(16)
	}
	sp := &ActiveSpan{
		name:  name,
		tc:    tc,
		buf:   ContextBuffer(ctx),
		hist:  spanHist(name),
		start: time.Now(),
		attrs: attrs,
	}
	ctx = context.WithValue(ctx, traceCtxKey{}, tc)
	return context.WithValue(ctx, activeSpanKey{}, sp), sp
}

// CurrentSpan returns the innermost span started (in this process) under
// ctx, or nil. It lets a layer annotate the span it runs inside — e.g.
// the cache decorator stamping tile.cache onto the scheduler's
// tile.optimize span — without threading the *ActiveSpan through every
// interface. Annotate only from the goroutine tree that will end the
// span; SetAttrs is not synchronized against End.
func CurrentSpan(ctx context.Context) *ActiveSpan {
	sp, _ := ctx.Value(activeSpanKey{}).(*ActiveSpan)
	return sp
}

// Context returns the span's trace position (for stamping onto wire
// headers or results).
func (s *ActiveSpan) Context() TraceContext { return s.tc }

// SetAttrs appends attributes to the span before it ends.
func (s *ActiveSpan) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span, records its histogram observation, and emits it
// to the buffer and the JSONL trace. End is idempotent; extra calls return
// the original duration without re-emitting.
func (s *ActiveSpan) End() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return 0
	}
	s.ended = true
	d := time.Since(s.start)
	s.hist.Observe(d.Seconds())
	ev := SpanEvent{
		Name:     s.name,
		TraceID:  s.tc.TraceID,
		SpanID:   s.tc.SpanID,
		ParentID: s.tc.ParentID,
		Start:    s.start,
		Dur:      d,
		Attrs:    s.attrs,
	}
	s.buf.Emit(ev)
	if traceEnabled.Load() {
		traceEmitEvent(ev)
	}
	return d
}

// Event emits an instant event under the current span in ctx. It is a
// no-op when ctx carries no buffer and JSONL tracing is off, so hot loops
// can call it unconditionally.
func Event(ctx context.Context, name string, attrs ...Attr) {
	buf := ContextBuffer(ctx)
	if buf == nil && !traceEnabled.Load() {
		return
	}
	tc, _ := ContextTrace(ctx)
	ev := SpanEvent{
		Name:     name,
		TraceID:  tc.TraceID,
		ParentID: tc.SpanID,
		Start:    time.Now(),
		Instant:  true,
		Attrs:    attrs,
	}
	buf.Emit(ev)
	if traceEnabled.Load() {
		traceEmitEvent(ev)
	}
}

// EmitShipped replays span events produced elsewhere (e.g. shipped back
// from a worker) into ctx's buffer and the JSONL trace, preserving their
// original IDs and timestamps.
func EmitShipped(ctx context.Context, evs []SpanEvent) {
	buf := ContextBuffer(ctx)
	jsonl := traceEnabled.Load()
	if buf == nil && !jsonl {
		return
	}
	for _, ev := range evs {
		buf.Emit(ev)
		if jsonl {
			traceEmitEvent(ev)
		}
	}
}
