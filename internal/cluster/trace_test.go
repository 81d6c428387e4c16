package cluster

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mosaic/internal/frame"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

func TestSpanCodecRoundTrip(t *testing.T) {
	base := time.UnixMicro(time.Now().UnixMicro()) // µs granularity survives the wire
	in := []obs.SpanEvent{
		{
			Name: "worker.tile", TraceID: "aaaa", SpanID: "bbbb", ParentID: "cccc",
			Start: base, Dur: 1500 * time.Millisecond,
			Attrs: []obs.Attr{
				obs.String("proc", "http://w1"),
				obs.Int("tile", 2),
				obs.Float("objective", 0.125),
			},
		},
		{
			Name: "ilt.iter", TraceID: "aaaa", ParentID: "bbbb",
			Start: base.Add(time.Second), Instant: true,
			Attrs: []obs.Attr{obs.Int("iter", 3)},
		},
		{Name: "bare", TraceID: "aaaa", SpanID: "dddd", Start: base, Dur: time.Microsecond},
	}
	encode := func(spans []obs.SpanEvent) []byte {
		w := frame.NewFrame(0)
		encodeSpans(w, spans)
		return w.Payload()
	}
	r := frame.NewReader(encode(in))
	out := decodeSpans(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Name != b.Name || a.TraceID != b.TraceID || a.SpanID != b.SpanID ||
			a.ParentID != b.ParentID || !a.Start.Equal(b.Start) || a.Dur != b.Dur ||
			a.Instant != b.Instant || len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("span %d drifted:\n in %+v\nout %+v", i, a, b)
		}
		for k := range a.Attrs {
			if a.Attrs[k] != b.Attrs[k] {
				t.Fatalf("span %d attr %d drifted: %+v != %+v", i, k, a.Attrs[k], b.Attrs[k])
			}
		}
	}

	// An attribute value of an unknown Go type must degrade to its string
	// form, not corrupt the frame.
	r2 := frame.NewReader(encode([]obs.SpanEvent{{Name: "odd", Attrs: []obs.Attr{{Key: "b", Value: true}}}}))
	odd := decodeSpans(r2)
	if r2.Err() != nil || len(odd) != 1 || odd[0].Attrs[0].Value != "true" {
		t.Fatalf("unknown attr kind did not degrade to string: %+v err=%v", odd, r2.Err())
	}

	// An unknown wire kind (a corrupt or future frame) must fail loudly.
	bad := encode([]obs.SpanEvent{{Name: "x", Attrs: []obs.Attr{obs.Int("k", 1)}}})
	// The kind word sits right after the spans' fixed fields and the attr
	// key; patch it to garbage.
	kindOff := len(bad) - 16 // kind + value are the last two words
	binary.LittleEndian.PutUint64(bad[kindOff:], 99)
	r3 := frame.NewReader(bad)
	decodeSpans(r3)
	if r3.Err() == nil {
		t.Fatal("unknown span attribute kind accepted")
	}
}

// startNamedWorker serves a named Worker (the name becomes the "proc"
// attribute on shipped spans) over a real HTTP listener.
func startNamedWorker(t *testing.T, capacity int, name string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{Capacity: capacity, Name: name}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// attrOf fetches a span attribute by key.
func attrOf(ev obs.SpanEvent, key string) (any, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestDistributedTracePropagation is the tracing tentpole: a run over two
// HTTP workers must assemble into ONE trace — every local and shipped span
// under the job's trace ID, worker spans parented by their dispatch spans
// and labeled with the worker's process name, with all tiles covered.
func TestDistributedTracePropagation(t *testing.T) {
	env := sharedEnv(t)
	c := newTestCoordinator(t, Config{})
	w1 := startNamedWorker(t, 2, "w1")
	w2 := startNamedWorker(t, 2, "w2")
	if _, err := c.Join(w1.URL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(w2.URL, 2); err != nil {
		t.Fatal(err)
	}

	buf := obs.NewSpanBuffer(0)
	ctx := obs.ContextWithBuffer(context.Background(), buf)
	ctx, root := obs.StartSpan(ctx, obs.ServeJob)
	res, err := env.plan.Optimize(ctx, env.ws, env.cfg, tile.Options{Workers: 4, Runner: c})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	mustMatchRef(t, env, res)

	jobTrace := root.Context().TraceID
	evs := buf.Events()
	dispatchSpans := map[string]bool{} // span ID -> exists
	workerTiles := map[int64]string{}  // tile -> proc
	workerParents := map[int64]string{}
	var iterEvents int
	for _, ev := range evs {
		if ev.TraceID != jobTrace {
			t.Fatalf("event %q strayed from the job trace: %q != %q", ev.Name, ev.TraceID, jobTrace)
		}
		switch ev.Name {
		case "cluster.dispatch":
			dispatchSpans[ev.SpanID] = true
		case "worker.tile":
			tv, _ := attrOf(ev, "tile")
			pv, ok := attrOf(ev, "proc")
			if !ok {
				t.Fatalf("worker.tile span without proc attr: %+v", ev)
			}
			workerTiles[tv.(int64)] = pv.(string)
			workerParents[tv.(int64)] = ev.ParentID
		case "ilt.iter":
			if pv, ok := attrOf(ev, "proc"); ok && pv != "" {
				iterEvents++
			}
		}
	}
	if len(workerTiles) != len(env.plan.Tiles) {
		t.Fatalf("worker.tile spans cover tiles %v, want all %d tiles", workerTiles, len(env.plan.Tiles))
	}
	procs := map[string]bool{}
	for tileIdx, proc := range workerTiles {
		if proc != "w1" && proc != "w2" {
			t.Errorf("tile %d ran on unknown proc %q", tileIdx, proc)
		}
		procs[proc] = true
		if !dispatchSpans[workerParents[tileIdx]] {
			t.Errorf("tile %d worker span parent %q is not a dispatch span", tileIdx, workerParents[tileIdx])
		}
	}
	if len(procs) != 2 {
		t.Errorf("tiles ran on %v, want both workers exercised", procs)
	}
	// Per-iteration instants crossed the wire too: MaxIter per tile.
	if want := env.cfg.MaxIter * len(env.plan.Tiles); iterEvents != want {
		t.Errorf("%d shipped ilt.iter events, want %d", iterEvents, want)
	}
}

// TestTraceSurvivesWorkerDeath mirrors the smoke test's assertion: when a
// worker dies mid-job and its tiles are reassigned, the assembled trace
// still covers every tile under the single job trace ID, and the
// reassignments appear as events in that same trace.
func TestTraceSurvivesWorkerDeath(t *testing.T) {
	env := sharedEnv(t)
	c := newTestCoordinator(t, Config{})
	alive := startNamedWorker(t, 4, "survivor")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dead.Close)
	if _, err := c.Join(alive.URL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(dead.URL, 2); err != nil {
		t.Fatal(err)
	}

	buf := obs.NewSpanBuffer(0)
	ctx := obs.ContextWithBuffer(context.Background(), buf)
	ctx, root := obs.StartSpan(ctx, obs.ServeJob)
	res, err := env.plan.Optimize(ctx, env.ws, env.cfg, tile.Options{Workers: 4, Runner: c})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	mustMatchRef(t, env, res)

	jobTrace := root.Context().TraceID
	tilesTraced := map[int64]bool{}
	reassigns := 0
	for _, ev := range buf.Events() {
		if ev.TraceID != jobTrace {
			t.Fatalf("event %q strayed from the job trace: %q != %q", ev.Name, ev.TraceID, jobTrace)
		}
		switch ev.Name {
		case "worker.tile":
			if tv, ok := attrOf(ev, "tile"); ok {
				tilesTraced[tv.(int64)] = true
			}
		case "cluster.reassign":
			reassigns++
		}
	}
	if reassigns == 0 {
		t.Fatal("no cluster.reassign event: the dead worker was never exercised")
	}
	if len(tilesTraced) != len(env.plan.Tiles) {
		t.Fatalf("worker.tile spans cover %d tiles (%v), want all %d — reassigned tiles lost their trace",
			len(tilesTraced), tilesTraced, len(env.plan.Tiles))
	}
}
