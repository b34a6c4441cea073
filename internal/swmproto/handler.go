package swmproto

import (
	"encoding/json"
	"fmt"
)

// SessionHandler serves requests addressed to one session of a fleet.
// This is the transport-agnostic seam of the protocol: request in,
// response out, no X types (and no HTTP types) in the signature.
// Implementations (internal/fleet's Manager) run the request under the
// addressed session's lane, with its WM's ServeProto — the one piece
// of query-serving logic in the tree, which the X-property channel in
// internal/core dispatches to as well. Requests for
// sessions that do not exist or cannot serve come back as error
// envelopes (CodeUnknownSession, CodeSessionDown, CodeTimeout), never
// as transport-level failures — the envelope is the contract.
type SessionHandler interface {
	ServeSession(id int, req Request) Response
}

// Machine-readable error codes carried by Response.Code whenever
// OK=false. Transports share these: HTTP maps each code to a status via
// HTTPStatus, swmcmd maps each to a distinct process exit code via
// ExitCode, and TestCodeTables pins both tables so the mapping cannot
// drift between transports.
const (
	// CodeBadRequest: the request could not be decoded, carries a
	// version this peer does not speak, or names a screen that does not
	// exist.
	CodeBadRequest = "bad_request"
	// CodeUnknownOp: Request.Op is neither OpQuery nor OpExec.
	CodeUnknownOp = "unknown_op"
	// CodeUnknownTarget: an OpQuery for a target this version does not
	// serve.
	CodeUnknownTarget = "unknown_target"
	// CodeUnknownSession: the addressed fleet session does not exist.
	CodeUnknownSession = "unknown_session"
	// CodeSessionDown: the session exists but has no running WM
	// (stopped, starting, failed, or the fleet is closed).
	CodeSessionDown = "session_down"
	// CodeTimeout: the session's lane stayed busy past the serve
	// timeout.
	CodeTimeout = "timeout"
	// CodeExecFailed: an OpExec command parsed but failed to execute.
	CodeExecFailed = "exec_failed"
	// CodeInternal: the handler itself failed (marshal error, panic
	// caught by transport middleware).
	CodeInternal = "internal"
)

// Codes lists every error code, in the order the mapping tables are
// documented. New codes must be added here and to both tables; the pin
// test enforces the invariant.
func Codes() []string {
	return []string{
		CodeBadRequest,
		CodeUnknownOp,
		CodeUnknownTarget,
		CodeUnknownSession,
		CodeSessionDown,
		CodeTimeout,
		CodeExecFailed,
		CodeInternal,
	}
}

// httpStatus is the single source of the code→HTTP-status mapping.
var httpStatus = map[string]int{
	CodeBadRequest:     400,
	CodeUnknownOp:      400,
	CodeUnknownTarget:  404,
	CodeUnknownSession: 404,
	CodeSessionDown:    503,
	CodeTimeout:        504,
	CodeExecFailed:     422,
	CodeInternal:       500,
}

// exitCode is the single source of the code→exit-code mapping. 0 is
// success and 1 is reserved for transport-level failures (could not
// reach the server at all), so protocol codes start at 2.
var exitCode = map[string]int{
	CodeBadRequest:     2,
	CodeUnknownOp:      3,
	CodeUnknownTarget:  4,
	CodeUnknownSession: 5,
	CodeSessionDown:    6,
	CodeTimeout:        7,
	CodeExecFailed:     8,
	CodeInternal:       9,
}

// HTTPStatus maps an error code to the HTTP status the JSON transport
// responds with. Unknown codes (a newer peer) map to 500.
func HTTPStatus(code string) int {
	if s, ok := httpStatus[code]; ok {
		return s
	}
	return 500
}

// ExitCode maps an error code to the process exit code swmcmd uses.
// Unknown codes map to 1, the generic failure exit.
func ExitCode(code string) int {
	if c, ok := exitCode[code]; ok {
		return c
	}
	return 1
}

// Errorf builds the uniform error envelope: OK=false, the typed code,
// and a human-readable message.
func Errorf(code, format string, args ...any) Response {
	return Response{OK: false, Code: code, Error: fmt.Sprintf(format, args...)}
}

// OKResult builds a success envelope around an already-marshalled
// payload.
func OKResult(result json.RawMessage) Response {
	return Response{OK: true, Result: result}
}
