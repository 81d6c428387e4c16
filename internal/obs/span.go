package obs

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is a started timed region; finish it with End.
type Span struct {
	name     *Name        // nil for the root a buffer hangs on
	tc       TraceContext // zero when nobody was listening at the start
	buf      *SpanBuffer
	start    time.Time
	excluded time.Duration
	attrs    []Attr
	dur      time.Duration // set by the first End
	ended    bool
}

// spanKey is the one context value of the package: the innermost span.
type spanKey struct{}

// noSpan is the parent of a span started on a context that carries none.
var noSpan = new(Span)

func parentSpan(ctx context.Context) *Span {
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok {
		return sp
	}
	return noSpan
}

// ContextWithBuffer attaches a SpanBuffer to ctx. Spans started under the
// returned context (and their descendants) are collected into buf, in the
// trace ctx carries, if any, as children of its current span.
func ContextWithBuffer(ctx context.Context, buf *SpanBuffer) context.Context {
	return context.WithValue(ctx, spanKey{}, &Span{tc: parentSpan(ctx).tc, buf: buf})
}

// StartSpan starts a named span under ctx. If ctx already carries a trace,
// the span joins it as a child of the current span; otherwise it roots a
// new trace. The returned context carries the new span, so descendants
// nest under it. End feeds the duration to span_<name>_seconds and emits
// the completed span to the context's SpanBuffer and the trace file.
//
// A span nobody listens to — nothing on ctx, no trace file — only times:
// it draws no IDs and returns ctx as it came, so a hot loop with no
// context of its own starts one on context.Background() for the price of
// a clock read.
func StartSpan(ctx context.Context, name *Name, attrs ...Attr) (context.Context, *Span) {
	parent := parentSpan(ctx)
	sp := &Span{name: name, buf: parent.buf, start: time.Now(), attrs: attrs}
	if parent == noSpan && !traceEnabled.Load() {
		return ctx, sp
	}
	sp.tc = TraceContext{TraceID: parent.tc.TraceID, ParentID: parent.tc.SpanID, SpanID: newID(8)}
	if sp.tc.TraceID == "" {
		sp.tc.TraceID = newID(16)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// CurrentSpan returns the innermost span started (in this process) under
// ctx, or nil. It lets a layer annotate the span it runs inside — e.g.
// cache.Runner stamping tile.cache onto the scheduler's
// tile.optimize span — without threading the *Span through every
// interface. Annotate only from the goroutine tree that will end the
// span; SetAttrs is not synchronized against End.
func CurrentSpan(ctx context.Context) *Span {
	if sp := parentSpan(ctx); sp.name != nil {
		return sp
	}
	return nil
}

// Context returns the span's trace position; it is zero for a span nobody
// listens to.
func (s *Span) Context() TraceContext { return s.tc }

// SetAttrs appends attributes to the span before it ends.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s != nil {
		s.attrs = append(s.attrs, attrs...)
	}
}

// Exclude takes d out of the duration End will report: time that passed
// inside the region but is not its own (an optimizer iteration's
// diagnostic evaluation). The span keeps its true wall-clock start.
func (s *Span) Exclude(d time.Duration) { s.excluded += d }

// End completes the span, records its histogram observation, and emits it
// to the buffer and the trace file. End is idempotent: extra calls return
// the first call's duration without re-emitting.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start) - s.excluded
		s.name.hist.Observe(s.dur.Seconds())
		emit(s.buf, SpanEvent{
			Name:     s.name.name,
			TraceID:  s.tc.TraceID,
			SpanID:   s.tc.SpanID,
			ParentID: s.tc.ParentID,
			Start:    s.start,
			Dur:      s.dur,
			Attrs:    s.attrs,
		})
	}
	return s.dur
}

// Event emits an instant event under the current span in ctx. With no
// buffer on ctx and no trace file it goes nowhere, so hot loops call it
// unconditionally.
func Event(ctx context.Context, name *Name, attrs ...Attr) {
	parent := parentSpan(ctx)
	emit(parent.buf, SpanEvent{
		Name:     name.name,
		TraceID:  parent.tc.TraceID,
		ParentID: parent.tc.SpanID,
		Start:    time.Now(),
		Instant:  true,
		Attrs:    attrs,
	})
}

// emit is the one way an event leaves: into the job's buffer, if there is
// one, and into the trace file, if one is open.
func emit(buf *SpanBuffer, ev SpanEvent) {
	buf.Emit(ev)
	if !traceEnabled.Load() {
		return
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	if traceOut != nil {
		traceOut.event(ev)
	}
}

var (
	traceEnabled atomic.Bool
	traceMu      sync.Mutex
	traceOut     *perfettoWriter
)

// StartTrace begins writing every completed span or instant to w as
// Perfetto trace_event JSON in array form (see PerfettoTrace), on a lane
// named after the executable. Any previously active trace is stopped first.
func StartTrace(w io.Writer) {
	traceMu.Lock()
	defer traceMu.Unlock()
	closeTraceLocked()
	traceOut = newPerfettoWriter(w, filepath.Base(os.Args[0]))
	traceEnabled.Store(true)
}

// StopTrace stops tracing, writes the closing "]" and closes the sink if
// it is closable. It returns the first error the sink gave, so a trace cut
// short by a full disk is not mistaken for a whole one.
func StopTrace() error {
	traceMu.Lock()
	defer traceMu.Unlock()
	return closeTraceLocked()
}

func closeTraceLocked() error {
	traceEnabled.Store(false)
	if traceOut == nil {
		return nil
	}
	err := traceOut.close()
	traceOut = nil
	return err
}
