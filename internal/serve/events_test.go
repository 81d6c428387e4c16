package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mosaic/internal/obs"
)

func TestJobTelemetryPublishSubscribe(t *testing.T) {
	tel := newJobTelemetry()
	tel.publish("state", map[string]any{"state": "queued"})

	replay, live, cancel := tel.subscribe(0)
	defer cancel()
	if len(replay) != 1 || replay[0].Type != "state" || replay[0].Seq != 1 {
		t.Fatalf("replay %+v, want the queued event at seq 1", replay)
	}
	tel.publish("iteration", map[string]any{"iter": int64(1)})
	select {
	case ev := <-live:
		if ev.Seq != 2 || ev.Type != "iteration" {
			t.Fatalf("live event %+v, want iteration at seq 2", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("live subscriber received nothing")
	}

	// Resuming mid-stream replays only what was missed.
	replay2, _, cancel2 := tel.subscribe(1)
	defer cancel2()
	if len(replay2) != 1 || replay2[0].Seq != 2 {
		t.Fatalf("resume replay %+v, want just seq 2", replay2)
	}

	tel.closeLog()
	if _, open := <-live; open {
		t.Fatal("live channel still open after closeLog")
	}
	// A post-close subscribe gets the full ring and no live channel.
	replay3, live3, cancel3 := tel.subscribe(0)
	defer cancel3()
	if len(replay3) != 2 || live3 != nil {
		t.Fatalf("post-close subscribe: replay %d events, live %v; want 2, nil", len(replay3), live3)
	}
}

func TestJobTelemetryOverflowDisconnects(t *testing.T) {
	tel := newJobTelemetry()
	_, live, cancel := tel.subscribe(0)
	defer cancel()
	// Never read: once the channel is full the subscriber must be dropped,
	// not block the publisher.
	for i := 0; i < subChanCap+2; i++ {
		tel.publish("iteration", nil)
	}
	drained := 0
	for range live {
		drained++
	}
	if drained != subChanCap {
		t.Fatalf("drained %d events before close, want %d", drained, subChanCap)
	}
	// The ring still has everything for a reconnect.
	replay, _, cancel2 := tel.subscribe(int64(drained))
	defer cancel2()
	if len(replay) != 2 {
		t.Fatalf("reconnect replay %d events, want 2", len(replay))
	}
}

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	ID    int64
	Event string
	Data  JobEvent
}

// readSSE parses frames off a live SSE stream until it ends or n frames
// arrive (n <= 0 means read to EOF).
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.ID, _ = strconv.ParseInt(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.Data); err != nil {
				t.Fatalf("SSE data %q: %v", line, err)
			}
		case line == "":
			frames = append(frames, cur)
			if n > 0 && len(frames) >= n {
				return frames
			}
			cur = sseFrame{}
		}
	}
}

func TestSSEStreamAndResume(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 6})
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe live while the job runs and take the first few frames.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	head := readSSE(t, bufio.NewReader(resp.Body), 3)
	resp.Body.Close() // drop the stream mid-job
	if len(head) < 1 || head[0].Data.Type != "state" {
		t.Fatalf("first frame %+v, want the queued state event", head)
	}

	waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateDone })

	// Reconnect with Last-Event-ID: the replay must pick up exactly after
	// the last frame we saw and run through the terminal state event.
	last := head[len(head)-1].ID
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(last, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail := readSSE(t, bufio.NewReader(resp2.Body), 0)
	if len(tail) == 0 {
		t.Fatal("resumed stream replayed nothing")
	}
	seq := last
	for _, f := range tail {
		if f.ID != seq+1 {
			t.Fatalf("resume gap: frame id %d after %d", f.ID, seq)
		}
		seq = f.ID
	}

	all := append(head, tail...)
	iters, states := 0, 0
	var objectives []float64
	for _, f := range all {
		if f.ID != f.Data.Seq {
			t.Errorf("frame id %d != data seq %d", f.ID, f.Data.Seq)
		}
		switch f.Event {
		case "iteration":
			iters++
			obj, ok := f.Data.Data["objective"].(float64)
			if !ok {
				t.Fatalf("iteration event without objective: %+v", f.Data)
			}
			objectives = append(objectives, obj)
			if _, ok := f.Data.Data["iter"]; !ok {
				t.Fatalf("iteration event without iter: %+v", f.Data)
			}
		case "state":
			states++
		}
	}
	if iters != 6 {
		t.Errorf("saw %d iteration events, want 6", iters)
	}
	if states < 3 { // queued, running, done
		t.Errorf("saw %d state events, want >= 3", states)
	}
	if fin := tail[len(tail)-1]; fin.Event != "state" || fin.Data.Data["state"] != string(StateDone) {
		t.Errorf("final frame %+v, want the done state event", fin)
	}
	if len(objectives) >= 2 && objectives[len(objectives)-1] > objectives[0] {
		t.Errorf("objective rose over the run: %v", objectives)
	}
}

func TestTraceEndpointAndStatusTelemetry(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A sharded run exercises the full span tree: serve.job → tile.pipeline
	// → tile.optimize → ilt.run → ilt.iter (2x2 tiles of a 512 nm clip).
	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 3, Grid: 32, TileNM: 256, TileWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateDone })

	if done.TraceID == "" {
		t.Error("finished Status carries no trace_id")
	}
	if len(done.Timeline) == 0 {
		t.Error("finished Status carries no timeline")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace endpoint returned invalid JSON: %v", err)
	}

	traceIDs := map[string]bool{}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		names[ev.Name]++
		if id, ok := ev.Args["trace_id"].(string); ok && id != "" {
			traceIDs[id] = true
		}
	}
	if len(traceIDs) != 1 || !traceIDs[done.TraceID] {
		t.Errorf("trace IDs %v, want exactly {%s}", traceIDs, done.TraceID)
	}
	for _, want := range []string{"serve.job", "tile.pipeline", "tile.optimize", "ilt.run", "ilt.iter", "tile.done"} {
		if names[want] == 0 {
			t.Errorf("trace missing %s events (have %v)", want, names)
		}
	}
	if names["tile.optimize"] != 4 {
		t.Errorf("%d tile.optimize spans, want 4", names["tile.optimize"])
	}
	if names["ilt.iter"] != 3*4 {
		t.Errorf("%d ilt.iter events, want 12 (3 iters x 4 tiles)", names["ilt.iter"])
	}

	// Unknown job answers 404, not an empty trace.
	r404, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job: status %d, want 404", r404.StatusCode)
	}
	r404e, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	r404e.Body.Close()
	if r404e.StatusCode != http.StatusNotFound {
		t.Errorf("events of unknown job: status %d, want 404", r404e.StatusCode)
	}
}

// TestTruncatedTraceSaysSo: a trace that outgrew the job's span buffer is
// exported with the number of events it is short of, not silently.
func TestTruncatedTraceSaysSo(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1, Grid: 32})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateDone })

	dropped := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("Trace-Dropped-Events")
	}
	if got := dropped(); got != "0" {
		t.Errorf("complete trace: Trace-Dropped-Events %q, want 0", got)
	}
	j, err := s.lookup(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	held := len(j.tel.buf.Events())
	for i := 0; i < obs.DefaultSpanBufferCap+7; i++ {
		j.tel.buf.Emit(obs.SpanEvent{Name: "worker.tile"})
	}
	if got, want := dropped(), strconv.Itoa(held+7); got != want {
		t.Errorf("truncated trace: Trace-Dropped-Events %q, want %s", got, want)
	}
}

// TestSSECanceledJobCloses ensures a canceled job terminates its streams
// rather than leaving subscribers hanging.
func TestSSECanceledJobCloses(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}

	type result struct{ frames []sseFrame }
	got := make(chan result, 1)
	go func() {
		got <- result{readSSE(t, bufio.NewReader(resp.Body), 0)}
	}()
	select {
	case r := <-got:
		if len(r.frames) == 0 {
			t.Fatal("stream ended with no frames")
		}
		fin := r.frames[len(r.frames)-1]
		if fin.Event != "state" || fin.Data.Data["state"] != string(StateCanceled) {
			t.Fatalf("final frame %+v, want canceled state", fin)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after cancel")
	}
}
