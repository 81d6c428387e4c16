package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestErrorEnvelope(t *testing.T) {
	rr := httptest.NewRecorder()
	httpError(rr, 404, codeNotFound, "no such job")
	if rr.Code != 404 {
		t.Fatalf("status %d, want 404", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var env envelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != codeNotFound || env.Error.Message != "no such job" {
		t.Fatalf("envelope = %+v", env)
	}
	if env.Error.RetryAfter != 0 {
		t.Fatal("retry_after must be absent on plain errors")
	}
	// The field must be omitted from the wire, not just zero.
	var raw map[string]map[string]any
	json.Unmarshal(rr.Body.Bytes(), &raw)
	if _, ok := raw["error"]["retry_after"]; ok {
		t.Fatal("retry_after serialized on a plain error")
	}
}

func TestRetryErrorEnvelope(t *testing.T) {
	rr := httptest.NewRecorder()
	retryError(rr, 429, codeQueueFull, "queue is full", 1500*time.Millisecond)
	if rr.Code != 429 {
		t.Fatalf("status %d, want 429", rr.Code)
	}
	// Header rounds up to whole seconds.
	if got := rr.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After header %q, want 2", got)
	}
	var env envelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != codeQueueFull || env.Error.RetryAfter != 1.5 {
		t.Fatalf("envelope = %+v", env)
	}

	// Sub-second hints still promise at least one second in the header.
	rr = httptest.NewRecorder()
	retryError(rr, 503, codeDraining, "draining", 10*time.Millisecond)
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header %q, want 1", got)
	}
}
