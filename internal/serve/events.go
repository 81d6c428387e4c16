package serve

import (
	"sync"
	"time"

	"mosaic/internal/obs"
)

// Telemetry sizing: the event ring bounds per-job retention (a resumable
// SSE client can only rewind this far), subscriber channels absorb bursts
// (an overflowing subscriber is disconnected — its reconnect with
// Last-Event-ID recovers the gap from the ring), and Status carries only
// the timeline tail.
const (
	eventRingCap = 1024
	subChanCap   = 256
	timelineTail = 16
)

// JobEvent is one entry of a job's telemetry timeline (and one SSE frame
// of GET /v1/jobs/{id}/events). Seq increases monotonically per job and is
// the SSE event ID clients resume from.
type JobEvent struct {
	Seq    int64          `json:"seq"`
	TimeMS int64          `json:"time_ms"`
	Type   string         `json:"type"`
	Data   map[string]any `json:"data,omitempty"`
}

// jobTelemetry fans one job's trace stream out to its SSE subscribers,
// retains a ring of recent events for reconnects and the status timeline,
// keeps the job's Progress, and buffers the raw span tree for the Perfetto
// export.
type jobTelemetry struct {
	buf *obs.SpanBuffer // the job's span tree, fed via context

	mu      sync.Mutex
	traceID string
	prog    Progress
	ring    []JobEvent // seq-ordered; len <= eventRingCap
	seq     int64
	closed  bool
	subs    map[chan JobEvent]struct{}
}

func newJobTelemetry() *jobTelemetry {
	t := &jobTelemetry{subs: make(map[chan JobEvent]struct{})}
	t.buf = obs.NewSpanBuffer(0)
	t.buf.OnEmit = t.observe
	return t
}

// eventTypes names the job event each instant of the obs name table is
// published as.
var eventTypes = map[string]string{
	obs.IltIter.String():  "iteration",
	obs.TileDone.String(): "tile",
}

// observe translates trace events into the job's public event stream and
// its Progress. Span completions stay trace-only; the instants are the
// curated telemetry surface.
func (t *jobTelemetry) observe(ev obs.SpanEvent) {
	typ, ok := eventTypes[ev.Name]
	if !ok {
		return
	}
	data := obs.AttrMap(ev.Attrs)
	num := func(key string) int {
		n, _ := data[key].(int64)
		return int(n)
	}
	t.mu.Lock()
	switch typ {
	case "iteration":
		t.prog.Iter = num("iter") + 1
		t.prog.Objective, _ = data["score"].(float64)
	case "tile":
		// Completions are numbered before they are emitted, so two tiles
		// can deliver theirs out of order; the count only rises.
		if done := num("done"); done > t.prog.TilesDone {
			t.prog.TilesDone, t.prog.TilesTotal = done, num("total")
		}
	}
	t.mu.Unlock()
	t.publish(typ, data)
}

// setMaxIter records the iteration budget the job runs under.
func (t *jobTelemetry) setMaxIter(n int) {
	t.mu.Lock()
	t.prog.MaxIter = n
	t.mu.Unlock()
}

// progress returns the job's live position.
func (t *jobTelemetry) progress() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prog
}

// publish appends one event to the ring and offers it to every live
// subscriber. A subscriber whose channel is full is disconnected rather
// than blocked — SSE reconnection replays what it missed from the ring.
func (t *jobTelemetry) publish(typ string, data map[string]any) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.seq++
	ev := JobEvent{Seq: t.seq, TimeMS: time.Now().UnixMilli(), Type: typ, Data: data}
	if len(t.ring) >= eventRingCap {
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = ev
	} else {
		t.ring = append(t.ring, ev)
	}
	var overflowed []chan JobEvent
	for ch := range t.subs {
		select {
		case ch <- ev:
		default:
			overflowed = append(overflowed, ch)
		}
	}
	for _, ch := range overflowed {
		delete(t.subs, ch)
		close(ch)
	}
	t.mu.Unlock()
}

// setTraceID records the job's root trace ID once the root span exists.
func (t *jobTelemetry) setTraceID(id string) {
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the job's root trace ID ("" before the job runs).
func (t *jobTelemetry) TraceID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// subscribe registers a live event listener resuming after seq afterSeq.
// It returns the retained events newer than afterSeq, the live channel
// (nil when the log is already closed — the replay is all there is), and
// a cancel func the subscriber must call when done.
func (t *jobTelemetry) subscribe(afterSeq int64) (replay []JobEvent, ch chan JobEvent, cancel func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range t.ring {
		if ev.Seq > afterSeq {
			replay = append(replay, ev)
		}
	}
	if t.closed {
		return replay, nil, func() {}
	}
	ch = make(chan JobEvent, subChanCap)
	t.subs[ch] = struct{}{}
	return replay, ch, func() {
		t.mu.Lock()
		if _, ok := t.subs[ch]; ok {
			delete(t.subs, ch)
			close(ch)
		}
		t.mu.Unlock()
	}
}

// closeLog ends the stream: live subscribers are disconnected (their
// channels closed) and further publishes are dropped. The ring and span
// buffer stay readable — traces and timelines outlive the run.
func (t *jobTelemetry) closeLog() {
	t.mu.Lock()
	for ch := range t.subs {
		delete(t.subs, ch)
		close(ch)
	}
	t.closed = true
	t.mu.Unlock()
}

// timeline returns the most recent events for embedding in Status.
func (t *jobTelemetry) timeline() []JobEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	if n > timelineTail {
		n = timelineTail
	}
	out := make([]JobEvent, n)
	copy(out, t.ring[len(t.ring)-n:])
	return out
}
