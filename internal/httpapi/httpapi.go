// Package httpapi is the shared HTTP wire vocabulary for every mosaic
// endpoint: the serve job API and the artifact/provenance API speak the
// same JSON error envelope,
//
//	{"error": {"code": "...", "message": "...", "retry_after": 2}}
//
// so a client needs exactly one error decoder. The code is a stable
// machine-readable symbol (clients switch on it; the message is for
// humans and may change), and retry_after appears only on throttling
// errors, mirrored in a standard Retry-After header.
package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Stable machine-readable error codes. Add, never repurpose: clients
// switch on these.
const (
	CodeBadRequest      = "bad_request"      // malformed request body, path, or query
	CodeNotFound        = "not_found"        // no such job, artifact, or route
	CodeConflict        = "conflict"         // job not in a state that allows the request
	CodeQueueFull       = "queue_full"       // admission control rejected the job; retry_after set
	CodeDraining        = "draining"         // server is shutting down; retry elsewhere
	CodeNotAcceptable   = "not_acceptable"   // no representation satisfies the Accept header
	CodeNoArtifacts     = "no_artifacts"     // no artifact store configured, or job anchored nothing
	CodeCorruptArtifact = "corrupt_artifact" // stored blob failed its integrity proof on read
	CodeInternal        = "internal"         // unexpected server-side failure
)

// ErrorBody is the inner error object.
type ErrorBody struct {
	Code       string  `json:"code"`
	Message    string  `json:"message"`
	RetryAfter float64 `json:"retry_after,omitempty"` // seconds
}

// Envelope is the top-level error document.
type Envelope struct {
	Error ErrorBody `json:"error"`
}

// JSON writes v as a JSON response with the given status.
func JSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Error writes the standard error envelope.
func Error(w http.ResponseWriter, status int, code, message string) {
	JSON(w, status, Envelope{Error: ErrorBody{Code: code, Message: message}})
}

// RetryError writes the error envelope with a retry hint, mirrored in
// a Retry-After header (whole seconds, rounded up, minimum 1 so the
// header never says "now" while the body says "wait").
func RetryError(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	JSON(w, status, Envelope{Error: ErrorBody{Code: code, Message: message, RetryAfter: retryAfter.Seconds()}})
}
