package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Stable machine-readable error codes of the envelope (package doc). Add,
// never repurpose: clients switch on these.
const (
	codeBadRequest      = "bad_request"      // malformed request body, path, or query
	codeNotFound        = "not_found"        // no such job, artifact, or route
	codeConflict        = "conflict"         // job not in a state that allows the request
	codeQueueFull       = "queue_full"       // admission control rejected the job; retry_after set
	codeDraining        = "draining"         // server is shutting down; retry elsewhere
	codeNotAcceptable   = "not_acceptable"   // no representation satisfies the Accept header
	codeNoArtifacts     = "no_artifacts"     // no artifact store configured, or job anchored nothing
	codeCorruptArtifact = "corrupt_artifact" // stored blob failed its integrity proof on read
	codeInternal        = "internal"         // unexpected server-side failure
)

// envelope is the top-level error document.
type envelope struct {
	Error errorDetail `json:"error"`
}

// errorDetail is the envelope's inner error object.
type errorDetail struct {
	Code       string  `json:"code"`
	Message    string  `json:"message"`
	RetryAfter float64 `json:"retry_after,omitempty"` // seconds
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// httpError writes the error envelope.
func httpError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, envelope{Error: errorDetail{Code: code, Message: message}})
}

// retryError writes the error envelope with a retry hint, mirrored in a
// Retry-After header (whole seconds, rounded up, minimum 1 so the header
// never says "now" while the body says "wait").
func retryError(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, envelope{Error: errorDetail{Code: code, Message: message, RetryAfter: retryAfter.Seconds()}})
}
