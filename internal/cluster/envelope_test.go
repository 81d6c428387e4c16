package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mosaic/internal/cache"
	"mosaic/internal/httpapi"
)

// clusterErrorCode decodes the shared error envelope off a response and
// fails the test when a handler strays from it.
func clusterErrorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type %q, want application/json", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var env httpapi.Envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("error body %q is not the shared envelope: %v", buf.Bytes(), err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error body %q misses code or message", buf.Bytes())
	}
	return env.Error.Code
}

// TestClusterErrorEnvelopes pins the envelope code of every cluster
// error path — control plane (coordinator) and data plane (worker) —
// to the same {"error":{"code","message"}} shape the job API speaks.
func TestClusterErrorEnvelopes(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	ctl := httptest.NewServer(c.Handler())
	t.Cleanup(ctl.Close)

	wk := NewWorker(WorkerConfig{Capacity: 1})
	data := httptest.NewServer(wk.Handler())
	t.Cleanup(data.Close)

	post := func(url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("malformed join", func(t *testing.T) {
		resp := post(ctl.URL+"/v1/cluster/join", "{broken")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if code := clusterErrorCode(t, resp); code != httpapi.CodeBadRequest {
			t.Fatalf("code %q, want %q", code, httpapi.CodeBadRequest)
		}
	})

	t.Run("malformed heartbeat", func(t *testing.T) {
		resp := post(ctl.URL+"/v1/cluster/heartbeat", "{broken")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if code := clusterErrorCode(t, resp); code != httpapi.CodeBadRequest {
			t.Fatalf("code %q, want %q", code, httpapi.CodeBadRequest)
		}
	})

	t.Run("unknown worker heartbeat", func(t *testing.T) {
		resp := post(ctl.URL+"/v1/cluster/heartbeat", `{"worker_id":"ghost"}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		if code := clusterErrorCode(t, resp); code != httpapi.CodeUnknownWorker {
			t.Fatalf("code %q, want %q", code, httpapi.CodeUnknownWorker)
		}
	})

	t.Run("worker busy", func(t *testing.T) {
		wk.slots <- struct{}{} // occupy the only slot
		defer func() { <-wk.slots }()
		resp := post(data.URL+"/v1/cluster/tile", "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if code := clusterErrorCode(t, resp); code != httpapi.CodeWorkerBusy {
			t.Fatalf("code %q, want %q", code, httpapi.CodeWorkerBusy)
		}
	})

	t.Run("malformed tile frame", func(t *testing.T) {
		resp := post(data.URL+"/v1/cluster/tile", "garbage")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if code := clusterErrorCode(t, resp); code != httpapi.CodeBadRequest {
			t.Fatalf("code %q, want %q", code, httpapi.CodeBadRequest)
		}
	})

	t.Run("other-generation worker refused", func(t *testing.T) {
		// A mismatched generation, and a join body from a build that
		// predates the field (it reads as generation 0).
		for _, body := range []string{
			fmt.Sprintf(`{"addr":"http://127.0.0.1:1","capacity":1,"digest_version":%d}`, cache.DigestVersion+1),
			`{"addr":"http://127.0.0.1:1","capacity":1}`,
		} {
			resp := post(ctl.URL+"/v1/cluster/join", body)
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("%s: status %d, want 409", body, resp.StatusCode)
			}
			if code := clusterErrorCode(t, resp); code != httpapi.CodeVersionMismatch {
				t.Fatalf("%s: code %q, want %q", body, code, httpapi.CodeVersionMismatch)
			}
		}
		if n := len(c.Workers()); n != 0 {
			t.Fatalf("%d workers registered by refused joins", n)
		}
	})

	t.Run("closed coordinator refuses joins", func(t *testing.T) {
		closed := NewCoordinator(Config{})
		srv := httptest.NewServer(closed.Handler())
		t.Cleanup(srv.Close)
		closed.Close()
		resp := post(srv.URL+"/v1/cluster/join",
			fmt.Sprintf(`{"addr":"http://127.0.0.1:1","capacity":1,"digest_version":%d}`, cache.DigestVersion))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if code := clusterErrorCode(t, resp); code != httpapi.CodeClusterClosed {
			t.Fatalf("code %q, want %q", code, httpapi.CodeClusterClosed)
		}
	})
}
