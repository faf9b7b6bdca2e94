package engine

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errQueueFull is admit's shed signal: the queue stayed full past the
// wait budget. Distinct from context cancellation so admission control
// can answer "overloaded" rather than "canceled".
var errQueueFull = errors.New("engine: job queue saturated")

// errClosed is admit's refusal once close has begun.
var errClosed = errors.New("engine: closed")

// pool bounds the engine's concurrency with two token sets: a request
// takes a queue slot to be admitted, then trades it for a run slot, and
// the goroutine that admitted it runs it. Admission blocks once every
// queue slot is taken, giving callers natural backpressure — and, via
// admit's budget, a typed shed point — while a request waiting for a
// run slot still answers its context.
type pool struct {
	queue chan struct{} // admitted requests waiting for a run slot
	run   chan struct{} // running requests
	// A request joins active under mu's read lock unless closed is set
	// and leaves it when it finishes or gives up; close sets closed
	// under the write lock, closes quit to release blocked admissions
	// and waits for active to drain.
	mu     sync.RWMutex
	closed bool
	quit   chan struct{}
	active sync.WaitGroup
}

// newPool runs workers requests at once over a queue of 4×workers
// slots: deep enough to absorb a burst while every run slot is busy,
// shallow enough that the admission budget sheds before the backlog
// grows.
func newPool(workers int) *pool {
	return &pool{
		queue: make(chan struct{}, 4*workers),
		run:   make(chan struct{}, workers),
		quit:  make(chan struct{}),
	}
}

// depth returns the number of queue slots.
func (p *pool) depth() int { return cap(p.queue) }

// queued returns the number of admitted requests waiting for a run slot.
func (p *pool) queued() int { return len(p.queue) }

// admit takes a queue slot, waiting at most maxWait for one (maxWait
// <= 0 waits indefinitely). It returns nil on admission, errQueueFull
// when the wait budget expired with the queue still full, ctx.Err()
// when the context died first, or errClosed once close has begun. An
// admitted request must call start, and finish once start succeeds.
func (p *pool) admit(ctx context.Context, maxWait time.Duration) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return errClosed
	}
	p.active.Add(1)
	p.mu.RUnlock()
	select {
	case p.queue <- struct{}{}:
		return nil
	default:
	}
	err := ctx.Err()
	if err == nil {
		var expired <-chan time.Time
		if maxWait > 0 {
			t := time.NewTimer(maxWait)
			defer t.Stop()
			expired = t.C
		}
		select {
		case p.queue <- struct{}{}:
			return nil
		case <-expired:
			err = errQueueFull
		case <-ctx.Done():
			err = ctx.Err()
		case <-p.quit:
			err = errClosed
		}
	}
	p.active.Done()
	return err
}

// start trades the request's queue slot for a run slot. It returns
// ctx.Err() as soon as the context dies first, and the request is then
// done with the pool.
func (p *pool) start(ctx context.Context) error {
	select {
	case p.run <- struct{}{}:
		<-p.queue
		return nil
	case <-ctx.Done():
		<-p.queue
		p.active.Done()
		return ctx.Err()
	}
}

// finish releases a started request's run slot.
func (p *pool) finish() {
	<-p.run
	p.active.Done()
}

// close stops admitting requests, refuses those blocked on a full
// queue, and waits for every admitted request to finish. Calls after
// the first return at once.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.quit)
	p.active.Wait()
}
