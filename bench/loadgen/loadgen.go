// Package loadgen drives an open-loop request schedule. Requests fall
// due at seeded Poisson arrival times whether or not earlier ones have
// finished, and each one is timed from when it was due, so a stall in
// the system under test shows in the latency of every request it holds
// up, not only in the one that stalled.
package loadgen

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// earlyHorizon absorbs the granularity of Go's timers: while the
// process idles in the network poller, a sleep wakes on a millisecond
// tick, up to a millisecond late. A caller therefore sleeps only until
// earlyHorizon before a request is due and then sends it; a request
// sent early is timed from its send time, so the early send neither
// hides nor adds latency, and only lateness counts as lag.
const earlyHorizon = 2 * time.Millisecond

// Poisson returns the due offsets of a Poisson arrival process of the
// given rate (per second) over d.
func Poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	mean := float64(time.Second) / rate
	var due []time.Duration
	for t := rng.ExpFloat64() * mean; t < float64(d); t += rng.ExpFloat64() * mean {
		due = append(due, time.Duration(t))
	}
	return due
}

// Plan is one open-loop run.
type Plan struct {
	// Due lists each request's due offset from the start, ascending.
	Due []time.Duration
	// Workers bounds the requests in flight: a request is issued only
	// when one of Workers callers is free, late if none is.
	Workers int
	// Cutoff stops issuing requests this long after the start, leaving
	// the rest unissued; zero means no cutoff. A run that falls
	// irrecoverably behind its schedule ends at the cutoff.
	Cutoff time.Duration
}

// Sample is the outcome of one scheduled request.
type Sample struct {
	Issued bool
	// Latency runs from the due time (or the send time, for a request
	// sent early) to completion.
	Latency time.Duration
	// Lag is the send time minus the due time: how late the generator
	// ran. Negative for a request sent early.
	Lag time.Duration
	// Service runs from send to completion, the closed-loop view that
	// ignores time spent waiting for a free caller.
	Service time.Duration
	Err     error
}

// Run issues op(ctx, i) for every request of p and returns one sample
// per request. It returns when every issued request has completed.
func Run(ctx context.Context, p Plan, op func(ctx context.Context, i int) error) []Sample {
	out := make([]Sample, len(p.Due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(p.Workers)
	for w := 0; w < p.Workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.Due) || ctx.Err() != nil {
					return
				}
				due := start.Add(p.Due[i])
				if ahead := time.Until(due); ahead > earlyHorizon {
					if !sleep(ctx, ahead-earlyHorizon) {
						return
					}
				}
				sent := time.Now()
				if p.Cutoff > 0 && sent.Sub(start) > p.Cutoff {
					return
				}
				err := op(ctx, i)
				done := time.Now()
				from := due
				if sent.Before(due) {
					from = sent
				}
				out[i] = Sample{Issued: true, Latency: done.Sub(from), Lag: sent.Sub(due), Service: done.Sub(sent), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleep waits for d or until ctx is done, reporting false for the
// latter.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Summary reduces the samples of one run.
type Summary struct {
	Issued, Failed int
	// Latency quantiles and geometric mean over issued requests.
	P50, P99, Geomean time.Duration
	// LagP99 is the 99th percentile of generator lag.
	LagP99 time.Duration
	// MeanService is the mean send-to-completion time.
	MeanService time.Duration
}

// Summarize reduces samples. Percentiles are nearest-rank.
func Summarize(samples []Sample) Summary {
	var s Summary
	var lat, lag []time.Duration
	var logSum float64
	var service time.Duration
	for _, x := range samples {
		if !x.Issued {
			continue
		}
		s.Issued++
		if x.Err != nil {
			s.Failed++
		}
		lat = append(lat, x.Latency)
		lag = append(lag, x.Lag)
		logSum += math.Log(float64(max(x.Latency, 1)))
		service += x.Service
	}
	if s.Issued == 0 {
		return s
	}
	s.P50, s.P99 = Quantile(lat, 0.50), Quantile(lat, 0.99)
	s.LagP99 = Quantile(lag, 0.99)
	s.Geomean = time.Duration(math.Exp(logSum / float64(s.Issued)))
	s.MeanService = service / time.Duration(s.Issued)
	return s
}

// Quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; zero for no samples.
func Quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}
