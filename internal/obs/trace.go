package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceContext identifies a position in a trace: the trace the work
// belongs to, the span doing the work, and that span's parent. IDs are
// lowercase hex (W3C trace-context sizes: 16-byte trace ID, 8-byte span ID).
type TraceContext struct {
	TraceID  string
	SpanID   string
	ParentID string
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

// SpanBuffer collects the SpanEvents of one trace. It is safe for concurrent use. When the buffer is full, further
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
