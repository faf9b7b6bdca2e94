package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the circuit is
// fenced off (open, or half-open with the probe slot taken). Callers
// map it onto their unavailable-class error.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is the circuit's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is allowed through; its
	// outcome decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerConfig tunes a Breaker. The zero value is usable: Normalize
// fills in the defaults.
type BreakerConfig struct {
	// FailureThreshold is the run of consecutive failures that opens
	// the circuit (default 5).
	FailureThreshold int
	// Cooldown is how long an open circuit rejects before letting a
	// half-open probe through (default 1s).
	Cooldown time.Duration
	// SuccessesToClose is the run of consecutive probe successes that
	// closes a half-open circuit (default 1).
	SuccessesToClose int
}

// Normalize returns the config with defaults applied.
func (c BreakerConfig) Normalize() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.SuccessesToClose <= 0 {
		c.SuccessesToClose = 1
	}
	return c
}

// BreakerStats counts a breaker's transitions and rejections, for
// telemetry export.
type BreakerStats struct {
	State      BreakerState
	Opens      uint64 // transitions into open (incl. re-opens from half-open)
	HalfOpens  uint64 // transitions into half-open
	Closes     uint64 // transitions back to closed
	Rejections uint64 // Allow calls refused
}

// Breaker is a circuit breaker: it watches a dependency through the
// success/failure reports of its callers and fails fast while the
// dependency is down, so a dead server costs one rejected call instead
// of one timeout per request. Time comes from the injected clock, so
// the open→half-open→closed walk is deterministic under test. Safe for
// concurrent use.
type Breaker struct {
	cfg   BreakerConfig
	clock Clock
	// onTransition, when non-nil, observes every state change (called
	// outside the lock would race re-entrant transitions; it is called
	// under the lock and must not call back into the breaker).
	onTransition func(from, to BreakerState)

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	probing   bool      // the half-open probe slot is taken
	openedAt  time.Time // when the circuit last opened

	opens      atomic.Uint64
	halfOpens  atomic.Uint64
	closes     atomic.Uint64
	rejections atomic.Uint64
}

// NewBreaker builds a closed breaker. A nil clock uses Wall;
// onTransition may be nil.
func NewBreaker(cfg BreakerConfig, clock Clock, onTransition func(from, to BreakerState)) *Breaker {
	if clock == nil {
		clock = Wall()
	}
	return &Breaker{cfg: cfg.Normalize(), clock: clock, onTransition: onTransition}
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	st := b.state
	b.mu.Unlock()
	return BreakerStats{
		State:      st,
		Opens:      b.opens.Load(),
		HalfOpens:  b.halfOpens.Load(),
		Closes:     b.closes.Load(),
		Rejections: b.rejections.Load(),
	}
}

// transition moves the state under the lock, notifying the observer.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.opens.Add(1)
		b.openedAt = b.clock.Now()
	case BreakerHalfOpen:
		b.halfOpens.Add(1)
		b.successes = 0
	case BreakerClosed:
		b.closes.Add(1)
		b.failures = 0
	}
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// Allow asks to run one request. It returns nil when traffic may flow
// (and, in half-open, reserves the probe slot) or ErrBreakerOpen when
// the circuit rejects. Every Allow that returns nil must be matched by
// exactly one Report.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejections.Add(1)
			return ErrBreakerOpen
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			b.rejections.Add(1)
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// Report resolves an allowed request: ok=true counts toward closing,
// ok=false toward opening. In half-open, the probe's failure re-opens
// the circuit immediately; its success closes it after
// SuccessesToClose consecutive good probes.
func (b *Breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probing = false
		if !ok {
			b.transition(BreakerOpen)
			return
		}
		b.successes++
		if b.successes >= b.cfg.SuccessesToClose {
			b.transition(BreakerClosed)
		}
	case BreakerOpen:
		// A late report from a request allowed before the circuit
		// opened; the cooldown clock is already running.
	}
}
