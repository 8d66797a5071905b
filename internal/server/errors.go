package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Every HTTP failure path answers with one JSON envelope:
//
//	{"error": "<human diagnostic>", "code": "<machine code>"}
//
// under a consistent status-code policy: 400 for malformed requests, 405 for
// a wrong method, 409 for a controller-parameter mismatch, 410 for a retired
// route, 503 while draining, 500 for internal faults. The Go client decodes the envelope into
// an *APIError, and maps the draining and param-mismatch codes onto the
// ErrDraining and ErrParamsMismatch sentinels so callers can errors.Is them
// without string matching.

// Machine-readable error codes carried by the envelope. The stream handshake
// reuses the mismatch codes (trace.StreamCodeParamMismatch etc.) so both
// transports name the same failure the same way.
const (
	// CodeMalformed labels a request the server could not parse: missing
	// or invalid parameters, bad query values.
	CodeMalformed = "malformed"
	// CodeMethodNotAllowed labels a request with the wrong HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeParamMismatch labels a request pinned to a controller-parameter
	// hash that differs from the server's configuration.
	CodeParamMismatch = "param_mismatch"
	// CodeDraining labels a request rejected because the server is
	// draining for shutdown.
	CodeDraining = "draining"
	// CodeReadOnly labels a write rejected because the daemon is running
	// as a read-only replica; ingest on the primary, or promote first.
	// Stream handshakes carry the same code (trace.StreamCodeReadOnly).
	CodeReadOnly = "read_only"
	// CodeNotReplica labels a promote request sent to a daemon that is not
	// (or is no longer) a replica — including a second promote.
	CodeNotReplica = "not_replica"
	// CodeUnsupportedKind labels a /v2 request naming a speculation kind the
	// daemon does not recognize or is not serving.
	CodeUnsupportedKind = "unsupported_kind"
	// CodeUnknownPolicy labels a request pinned to a policy name that is not
	// registered at all. (A registered-but-different policy is a
	// param_mismatch: the daemon could serve it, just isn't.)
	CodeUnknownPolicy = "unknown_policy"
	// CodeGone labels a request to a retired data-plane route (/v1/ingest,
	// /v1/decide); the message names the /v2 route that replaced it.
	CodeGone = "gone"
	// CodeInternal labels a server-side failure.
	CodeInternal = "internal"
)

// ErrDraining reports an operation rejected (or a stream session terminated)
// because the daemon is draining for shutdown.
var ErrDraining = errors.New("server: draining")

// ErrParamsMismatch reports a controller-parameter hash that differs between
// client and server: proceeding would produce silently diverging decisions.
var ErrParamsMismatch = errors.New("server: controller parameters mismatch")

// ErrReadOnly reports a write rejected by a read-only replica.
var ErrReadOnly = errors.New("server: replica is read-only")

// ErrNotReplica reports a promote request to a daemon that is not a replica
// (or was already promoted).
var ErrNotReplica = errors.New("server: not a replica")

// ErrUnsupportedKind reports a request for a speculation kind the daemon does
// not recognize or is not serving.
var ErrUnsupportedKind = errors.New("server: unsupported speculation kind")

// ErrUnknownPolicy reports a request pinned to an unregistered policy name.
var ErrUnknownPolicy = errors.New("server: unknown policy")

// errorEnvelope is the JSON wire form of every HTTP failure.
type errorEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError answers a request with the unified JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: msg, Code: code})
}

// APIError is a non-2xx daemon response decoded from the unified envelope.
type APIError struct {
	// Op names the client operation that failed ("ingest", "decide", ...).
	Op string
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's machine-readable code.
	Code string
	// Message is the envelope's human diagnostic (or the raw body for a
	// legacy non-JSON error).
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s: %d %s: %s", e.Op, e.Status, e.Code, e.Message)
}

// Is maps envelope codes onto the package's error sentinels, so
// errors.Is(err, ErrDraining) works on any client method's failure.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrDraining:
		return e.Code == CodeDraining
	case ErrParamsMismatch:
		return e.Code == CodeParamMismatch
	case ErrReadOnly:
		return e.Code == CodeReadOnly
	case ErrNotReplica:
		return e.Code == CodeNotReplica
	case ErrUnsupportedKind:
		return e.Code == CodeUnsupportedKind
	case ErrUnknownPolicy:
		return e.Code == CodeUnknownPolicy
	}
	return false
}
