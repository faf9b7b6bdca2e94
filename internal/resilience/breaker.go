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

// Every circuit opens after breakerFailures consecutive failures and
// rejects for breakerCooldown before one half-open probe decides: the
// probe's success closes it, its failure re-opens it.
const (
	breakerFailures = 5
	breakerCooldown = time.Second
)

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
	clock Clock

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	probing  bool      // the half-open probe slot is taken
	openedAt time.Time // when the circuit last opened

	opens      atomic.Uint64
	halfOpens  atomic.Uint64
	closes     atomic.Uint64
	rejections atomic.Uint64
}

// NewBreaker builds a closed breaker. A nil clock uses Wall.
func NewBreaker(clock Clock) *Breaker {
	if clock == nil {
		clock = Wall()
	}
	return &Breaker{clock: clock}
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

// transition moves the state under the lock.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.opens.Add(1)
		b.openedAt = b.clock.Now()
	case BreakerHalfOpen:
		b.halfOpens.Add(1)
	case BreakerClosed:
		b.closes.Add(1)
		b.failures = 0
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
		if b.clock.Now().Sub(b.openedAt) < breakerCooldown {
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
// ok=false toward opening. In half-open, the probe's outcome decides
// at once: failure re-opens the circuit, success closes it.
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
		if b.failures >= breakerFailures {
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.transition(BreakerClosed)
		} else {
			b.transition(BreakerOpen)
		}
	case BreakerOpen:
		// A late report from a request allowed before the circuit
		// opened; the cooldown clock is already running.
	}
}
