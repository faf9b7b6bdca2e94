package nanoxbar

import "nanoxbar/internal/apierr"

// The error taxonomy of the public API. Every failure returned by an
// API implementation — in-process or HTTP — wraps exactly one of these
// sentinels; compare with errors.Is. The sentinels are shared with the
// engine, so an error classified deep inside synthesis keeps its
// identity all the way out, and the HTTP client reconstructs it from
// the machine-readable wire code.
var (
	// ErrBadSpec: the request itself is malformed — unknown benchmark
	// name, unparsable expression, out-of-range limits, invalid defect
	// map or scheme.
	ErrBadSpec = apierr.ErrBadSpec
	// ErrInfeasible: the request is well-formed but has no solution
	// within its constraints, e.g. the implementation does not fit the
	// supplied chip.
	ErrInfeasible = apierr.ErrInfeasible
	// ErrCanceled: the context was canceled (or its deadline exceeded)
	// before the work completed.
	ErrCanceled = apierr.ErrCanceled
	// ErrOverloaded: the service shed the request under load instead of
	// queueing it past its wait budget. Safe to retry after backing off
	// (the HTTP surface sends a Retry-After hint).
	ErrOverloaded = apierr.ErrOverloaded
	// ErrUnavailable: the service cannot take requests right now —
	// draining for shutdown, unreachable over the network, or fenced
	// off by the HTTP client's circuit breaker.
	ErrUnavailable = apierr.ErrUnavailable
	// ErrInternal: an unexpected failure (bug, panic).
	ErrInternal = apierr.ErrInternal
)

// Wire codes, one per sentinel, as they appear in v2 HTTP error frames
// and error bodies.
const (
	CodeBadSpec     = apierr.CodeBadSpec
	CodeInfeasible  = apierr.CodeInfeasible
	CodeCanceled    = apierr.CodeCanceled
	CodeOverloaded  = apierr.CodeOverloaded
	CodeUnavailable = apierr.CodeUnavailable
	CodeInternal    = apierr.CodeInternal
)

// ErrorCode maps an error onto its wire code ("" for nil,
// "internal" for unclassified errors).
func ErrorCode(err error) string { return apierr.CodeOf(err) }

// ErrorFromCode reconstructs a typed error from its wire form; the
// result wraps the matching sentinel, so errors.Is works on errors
// that crossed an HTTP boundary.
func ErrorFromCode(code, detail string) error { return apierr.FromCode(code, detail) }
