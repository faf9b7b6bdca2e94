package loadgen

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A fake single-threaded service that stalls once. Requests that fell
// due during the stall must carry the stall in their latency, although
// their own service time is short, and the generator must never have
// more than Workers requests in flight. Requests are spaced wider than
// the early-send horizon, so the stalled request holds the service
// before the next one arrives.
func TestStallInflatesLaterRequests(t *testing.T) {
	const (
		n       = 60
		stallAt = 20
		stall   = 60 * time.Millisecond
		gap     = 5 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	var (
		mu       sync.Mutex
		inflight atomic.Int32
		peak     atomic.Int32
		stallEnd time.Time
		start    = time.Now()
	)
	samples := Run(context.Background(), Plan{Due: due, Workers: 2}, func(_ context.Context, i int) error {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if i == stallAt {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		return nil
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight, want at most 2", p)
	}
	// Run started no earlier than start, so each due time is no earlier
	// than start+due[i].
	inflated := 0
	for i := stallAt + 1; i < n; i++ {
		s := samples[i]
		if !s.Issued || s.Err != nil {
			t.Fatalf("request %d: issued=%v err=%v", i, s.Issued, s.Err)
		}
		held := stallEnd.Sub(start.Add(due[i]))
		if held <= 2*time.Millisecond {
			continue
		}
		inflated++
		if s.Latency < held-time.Millisecond {
			t.Errorf("request %d was held %v by the stall but recorded %v", i, held, s.Latency)
		}
		if s.Service > held/2 && i > stallAt+1 {
			// Only the request queued behind the stall waits inside the
			// service; the others wait for a free caller.
			t.Errorf("request %d: service %v should exclude the wait for a caller", i, s.Service)
		}
	}
	if inflated < 8 {
		t.Fatalf("only %d requests fell due during the stall", inflated)
	}
	sum := Summarize(samples)
	if sum.Issued != n || sum.Failed != 0 || sum.P99 < stall/2 {
		t.Fatalf("summary %+v: want all %d issued, none failed, p99 showing the stall", sum, n)
	}
}

func TestCutoffLeavesBacklogUnissued(t *testing.T) {
	due := make([]time.Duration, 50)
	samples := Run(context.Background(), Plan{Due: due, Workers: 2, Cutoff: 10 * time.Millisecond},
		func(context.Context, int) error { time.Sleep(4 * time.Millisecond); return nil })
	sum := Summarize(samples)
	if sum.Issued == 0 || sum.Issued >= len(due) {
		t.Fatalf("issued %d of %d, want a partial run", sum.Issued, len(due))
	}
}

func TestPoissonRate(t *testing.T) {
	due := Poisson(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	if n := len(due); n < 9700 || n > 10300 {
		t.Fatalf("%d arrivals in 10s at 1000/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []time.Duration{5, 1, 4, 2, 3}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := Quantile(xs, 0.99); q != 5 {
		t.Fatalf("p99 %v", q)
	}
}
