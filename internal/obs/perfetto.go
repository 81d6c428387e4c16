package obs

import (
	"bytes"
	"encoding/json"
	"io"
)

// perfettoEvent is one entry of a Chrome/Perfetto trace_event JSON array.
// Phases used: "X" (complete span), "i" (instant), "M" (metadata).
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`            // µs since the Unix epoch
	Dur   int64          `json:"dur,omitempty"` // µs
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoWriter streams span events as the JSON array form of Chrome
// trace_event, loadable in ui.perfetto.dev or chrome://tracing: "[" first,
// then one event a line, each in one Write, and "]" at close — so a file
// whose process died before the close still loads. Every event is on one
// "process" lane (pid 1, named local by an "M" record before the first
// event) and on one "thread" lane per tile (the "tile" attribute, tid
// tile+1; tileless events on tid 0). Correlation IDs and the attributes
// become args, so traces stay greppable.
type perfettoWriter struct {
	w        io.Writer
	local    string // the process lane's name
	declared bool   // the lane's "M" record is written
	sep      string // what goes before the next line
	err      error  // the first write error; nothing is written after it
}

func newPerfettoWriter(w io.Writer, local string) *perfettoWriter {
	p := &perfettoWriter{w: w, local: local, sep: "\n"}
	p.write([]byte("["))
	return p
}

func (p *perfettoWriter) write(b []byte) {
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}

// line writes one array element on a line of its own. An event that does
// not encode (a non-finite float attribute) is left out of the trace.
func (p *perfettoWriter) line(pe perfettoEvent) {
	b, err := json.Marshal(pe)
	if err != nil {
		return
	}
	p.write(append([]byte(p.sep), b...))
	p.sep = ",\n"
}

// event writes ev, after the process lane's "M" record if it is the
// first event.
func (p *perfettoWriter) event(ev SpanEvent) {
	pe := perfettoEvent{Name: ev.Name, Phase: "X", TS: ev.Start.UnixMicro(), Dur: ev.Dur.Microseconds(), PID: 1}
	args := map[string]any{}
	for _, a := range ev.Attrs {
		if t, ok := a.Value.(int64); ok && a.Key == "tile" {
			pe.TID = int(t) + 1
		}
		args[a.Key] = a.Value
	}
	if ev.TraceID != "" {
		args["trace_id"] = ev.TraceID
	}
	if ev.SpanID != "" {
		args["span_id"] = ev.SpanID
	}
	if ev.ParentID != "" {
		args["parent_id"] = ev.ParentID
	}
	if len(args) > 0 {
		pe.Args = args
	}
	if ev.Instant {
		pe.Phase, pe.Dur, pe.Scope = "i", 0, "t"
	}
	if !p.declared {
		p.declared = true
		p.line(perfettoEvent{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{"name": p.local}})
	}
	p.line(pe)
}

// close writes the closing "]", closes the destination if it is an
// io.Closer, and returns the first error of the writer's life.
func (p *perfettoWriter) close() error {
	p.write([]byte("\n]\n"))
	if c, ok := p.w.(io.Closer); ok {
		if err := c.Close(); p.err == nil {
			p.err = err
		}
	}
	return p.err
}

// PerfettoTrace renders span events as the object form of Chrome
// trace_event JSON, {"traceEvents":[…]}: the array a -trace file holds,
// written by the same writer, local naming the process lane. The same
// events render to the same bytes.
func PerfettoTrace(local string, evs []SpanEvent) []byte {
	var b bytes.Buffer
	b.WriteString(`{"traceEvents":`)
	p := newPerfettoWriter(&b, local)
	for _, ev := range evs {
		p.event(ev)
	}
	p.close()
	b.WriteString(`,"displayTimeUnit":"ms"}`)
	return b.Bytes()
}
