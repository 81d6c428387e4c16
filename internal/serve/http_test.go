package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// errorBody decodes the shared {"error":{"code","message"}} envelope
// and fails the test when a handler strays from that shape; it returns
// the human-readable message (see errorCode for the machine symbol).
func errorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	return errorEnvelope(t, resp).Error.Message
}

// errorCode decodes the envelope and returns its stable error code.
func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	return errorEnvelope(t, resp).Error.Code
}

func errorEnvelope(t *testing.T, resp *http.Response) envelope {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type %q, want application/json", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("error body %q is not the shared envelope: %v", buf.Bytes(), err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error body %q misses code or message", buf.Bytes())
	}
	return env
}

func TestHTTPErrorPaths(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("malformed submit body", func(t *testing.T) {
		for _, body := range []string{"{not json", `{"unknown_field": 1}`, `{"max_iter": "three"}`} {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("submit %q: status %d, want 400", body, resp.StatusCode)
			}
			errorBody(t, resp)
		}
	})

	t.Run("invalid spec", func(t *testing.T) {
		// The two grids are the ones that were accepted and then died in
		// the worker, grid 1 with a panic stack for a message.
		for _, body := range []string{`{}`, `{"benchmark":"B1","grid":1}`, `{"benchmark":"B1","grid":2}`} {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("submit %s: status %d, want 400", body, resp.StatusCode)
			}
			errorBody(t, resp)
		}
	})

	t.Run("unknown job id", func(t *testing.T) {
		gets := []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/mask"}
		for _, path := range gets {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
			}
			errorBody(t, resp)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs/nope/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("cancel unknown job: status %d, want 404", resp.StatusCode)
		}
		errorBody(t, resp)
	})

	t.Run("result before completion", func(t *testing.T) {
		st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Cancel(st.ID)
		waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })
		for _, path := range []string{
			fmt.Sprintf("/v1/jobs/%s/result", st.ID),
			fmt.Sprintf("/v1/jobs/%s/mask", st.ID),
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("GET %s on a running job: status %d, want 409", path, resp.StatusCode)
			}
			msg := errorBody(t, resp)
			if !strings.Contains(msg, "no result") {
				t.Fatalf("conflict error %q does not explain the missing result", msg)
			}
		}
	})
}

// TestHTTPQueueFullAnswers429 distinguishes over-capacity (429 with a
// Retry-After hint) from drain (503): a client should retry the former
// against the same instance and fail over on the latter.
func TestHTTPQueueFullAnswers429(t *testing.T) {
	cfg := testServerConfig()
	cfg.QueueLimit = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(blocker.ID)
	waitFor(t, s, blocker.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })
	if _, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1}); err != nil {
		t.Fatal(err) // fills the single queue slot
	}

	spec, _ := json.Marshal(JobSpec{Layout: testLayoutText, MaxIter: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 carries Retry-After %q, want a positive seconds hint", ra)
	}
	msg := errorBody(t, resp)
	if !strings.Contains(msg, "queue is full") {
		t.Fatalf("429 error %q does not mention the full queue", msg)
	}
}

func TestHTTPDrainingAnswers503(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	shutdown(t, s)

	spec, _ := json.Marshal(JobSpec{Layout: testLayoutText, MaxIter: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to a draining server: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("drain 503 carries Retry-After %q; the hint belongs to 429 only", ra)
	}
	errorBody(t, resp)
}
