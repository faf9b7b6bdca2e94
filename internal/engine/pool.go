package engine

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errQueueFull is submitWait's shed signal: the job queue stayed full
// past the wait budget. Distinct from context cancellation so admission
// control can answer "overloaded" rather than "canceled".
var errQueueFull = errors.New("engine: job queue saturated")

// errClosed is submitWait's refusal once close has begun.
var errClosed = errors.New("engine: closed")

// pool is a bounded worker pool: a fixed set of goroutines draining one
// job channel. Submission blocks once the buffer fills, giving callers
// natural backpressure — and, via submitWait's budget, a typed shed
// point — instead of unbounded goroutine growth.
type pool struct {
	jobs chan func()
	wg   sync.WaitGroup
	// A submitter joins senders under mu's read lock unless closed is
	// set; close sets closed under the write lock, closes quit to
	// release blocked senders and waits for senders before it closes
	// jobs, so no send ever meets a closed channel.
	mu      sync.RWMutex
	closed  bool
	quit    chan struct{}
	senders sync.WaitGroup
}

// newPool starts workers goroutines over a queue of 4×workers slots:
// deep enough to absorb a burst while every worker is busy, shallow
// enough that the admission budget sheds before the backlog grows.
func newPool(workers int) *pool {
	p := &pool{jobs: make(chan func(), 4*workers), quit: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// depth returns the queue buffer size.
func (p *pool) depth() int { return cap(p.jobs) }

// queued returns the number of jobs waiting for a worker.
func (p *pool) queued() int { return len(p.jobs) }

// submitWait enqueues a job, waiting at most maxWait for queue space
// (maxWait <= 0 waits indefinitely). It returns nil on acceptance,
// errQueueFull when the wait budget expired with the queue still full,
// ctx.Err() when the context died first, or errClosed once close has
// begun. A job accepted here may still observe a canceled context when
// it runs — executors re-check before doing work.
func (p *pool) submitWait(ctx context.Context, maxWait time.Duration, job func()) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return errClosed
	}
	p.senders.Add(1)
	p.mu.RUnlock()
	defer p.senders.Done()
	select {
	case p.jobs <- job:
		return nil
	default:
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	var expired <-chan time.Time
	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case p.jobs <- job:
		return nil
	case <-expired:
		return errQueueFull
	case <-done:
		return ctx.Err()
	case <-p.quit:
		return errClosed
	}
}

// close stops accepting jobs, waits out the submissions already past
// their closed check (releasing those blocked on a full queue), and
// waits for the workers to drain the queue. Calls after the first
// return at once.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.quit)
	p.senders.Wait()
	close(p.jobs)
	p.wg.Wait()
}
