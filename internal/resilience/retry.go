package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// RetryPolicy shapes an exponential backoff schedule: the delay doubles
// after every retry, from BaseDelay up to MaxDelay. The zero value is
// usable: Normalize fills in the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3; 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
}

// Normalize returns the policy with defaults applied.
func (p RetryPolicy) Normalize() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// abortError marks an error as non-retryable.
type abortError struct{ err error }

func (a *abortError) Error() string { return a.err.Error() }
func (a *abortError) Unwrap() error { return a.err }

// Abort wraps err so Retrier.Do returns it immediately instead of
// retrying — for failures where a retry cannot help (bad request) or
// is unsafe (side effects already observed).
func Abort(err error) error {
	if err == nil {
		return nil
	}
	return &abortError{err: err}
}

// retryAfterError carries a server-supplied backoff hint.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (r *retryAfterError) Error() string { return r.err.Error() }
func (r *retryAfterError) Unwrap() error { return r.err }

// WithRetryAfter attaches a server-supplied Retry-After hint to err:
// the retrier sleeps at least this long before the next attempt,
// overriding a shorter backoff.
func WithRetryAfter(err error, after time.Duration) error {
	if err == nil || after <= 0 {
		return err
	}
	return &retryAfterError{err: err, after: after}
}

// RetryAfter extracts a Retry-After hint from err (0 when absent).
func RetryAfter(err error) time.Duration {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after
	}
	return 0
}

// RetryStats counts a retrier's work, for telemetry export.
type RetryStats struct {
	// Attempts is the total number of operation invocations.
	Attempts uint64
	// Retries is how many of those were re-tries (attempt ≥ 2).
	Retries uint64
	// Exhausted counts Do calls that failed every allowed attempt.
	Exhausted uint64
}

// Retrier runs operations under a RetryPolicy with an injectable clock,
// so a given failure pattern always produces the same backoff schedule.
// Safe for concurrent use.
type Retrier struct {
	policy RetryPolicy
	clock  Clock

	attempts  atomic.Uint64
	retries   atomic.Uint64
	exhausted atomic.Uint64
}

// NewRetrier builds a retrier. A nil clock uses Wall.
func NewRetrier(policy RetryPolicy, clock Clock) *Retrier {
	if clock == nil {
		clock = Wall()
	}
	return &Retrier{policy: policy.Normalize(), clock: clock}
}

// Stats snapshots the retrier's counters.
func (r *Retrier) Stats() RetryStats {
	return RetryStats{
		Attempts:  r.attempts.Load(),
		Retries:   r.retries.Load(),
		Exhausted: r.exhausted.Load(),
	}
}

// delay computes the sleep before retry number n (1-based): BaseDelay
// doubled n-1 times, capped at MaxDelay, or the server hint carried by
// err when that is longer.
func (r *Retrier) delay(n int, err error) time.Duration {
	d, limit := r.policy.BaseDelay, r.policy.MaxDelay
	for i := 1; i < n && d < limit; i++ {
		if d > limit/2 {
			d = limit // doubling would pass the cap (or overflow)
		} else {
			d *= 2
		}
	}
	d = min(d, limit)
	if hint := RetryAfter(err); hint > d {
		d = hint
	}
	return d
}

// Do runs op until it succeeds, returns an Abort-wrapped error, the
// attempt budget is spent, or the context dies. Between attempts it
// sleeps the backoff (or the error's Retry-After hint if longer) on the
// injected clock; a sleep that would outlive the context's deadline is
// not started — Do returns the last error immediately, since the caller
// could never observe a later success.
// op receives the 1-based attempt number.
func (r *Retrier) Do(ctx context.Context, op func(ctx context.Context, attempt int) error) error {
	var last error
	for attempt := 1; ; attempt++ {
		r.attempts.Add(1)
		if attempt > 1 {
			r.retries.Add(1)
		}
		last = op(ctx, attempt)
		if last == nil {
			return nil
		}
		var abort *abortError
		if errors.As(last, &abort) {
			return abort.err
		}
		if attempt >= r.policy.MaxAttempts {
			r.exhausted.Add(1)
			return last
		}
		d := r.delay(attempt, last)
		if deadline, ok := ctx.Deadline(); ok && r.clock.Now().Add(d).After(deadline) {
			return last
		}
		if err := r.clock.Sleep(ctx, d); err != nil {
			return last
		}
	}
}
