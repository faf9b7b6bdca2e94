package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestFakeClock(t *testing.T) {
	start := time.Unix(1000, 0)
	fc := NewFake(start)
	if got := fc.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
	fc.Advance(3 * time.Second)
	if got := fc.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("after Advance, Now() = %v", got)
	}
	if err := fc.Sleep(context.Background(), 2*time.Second); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got := fc.Now(); !got.Equal(start.Add(5 * time.Second)) {
		t.Fatalf("after Sleep, Now() = %v", got)
	}
	if got := fc.Sleeps(); len(got) != 1 || got[0] != 2*time.Second {
		t.Fatalf("Sleeps() = %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fc.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on dead ctx: %v", err)
	}
	if got := fc.Sleeps(); len(got) != 1 {
		t.Fatalf("dead-ctx Sleep was recorded: %v", got)
	}
}

func TestWallClockSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Wall().Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	r := NewRetrier(RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Jitter: 0}, fc, 1)
	calls := 0
	err := r.Do(context.Background(), func(_ context.Context, attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt = %d on call %d", attempt, calls)
		}
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Zero jitter: the schedule is exactly base, base*2.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	got := fc.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	st := r.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Exhausted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0}, fc, 1)
	boom := errors.New("boom")
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryAbortStopsImmediately(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	r := NewRetrier(RetryPolicy{MaxAttempts: 5}, fc, 1)
	fatal := errors.New("fatal")
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error { calls++; return Abort(fatal) })
	if !errors.Is(err, fatal) {
		t.Fatalf("Do = %v, want %v", err, fatal)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if len(fc.Sleeps()) != 0 {
		t.Fatalf("slept %v after abort", fc.Sleeps())
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	r := NewRetrier(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: 0}, fc, 1)
	hinted := WithRetryAfter(errors.New("overloaded"), 250*time.Millisecond)
	calls := 0
	_ = r.Do(context.Background(), func(context.Context, int) error { calls++; return hinted })
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if got := fc.Sleeps(); len(got) != 1 || got[0] != 250*time.Millisecond {
		t.Fatalf("sleeps = %v, want [250ms]", got)
	}
	// The hint is a floor, not a ceiling: a longer backoff wins.
	if got := RetryAfter(WithRetryAfter(errors.New("x"), 7*time.Second)); got != 7*time.Second {
		t.Fatalf("RetryAfter = %v", got)
	}
	if got := RetryAfter(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfter(plain) = %v", got)
	}
}

func TestRetrySkipsSleepPastDeadline(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	r := NewRetrier(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Minute, Jitter: 0}, fc, 1)
	ctx, cancel := context.WithDeadline(context.Background(), fc.Now().Add(time.Second))
	defer cancel()
	boom := errors.New("boom")
	calls := 0
	err := r.Do(ctx, func(context.Context, int) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (sleep would outlive deadline)", calls)
	}
	if len(fc.Sleeps()) != 0 {
		t.Fatalf("slept %v past deadline", fc.Sleeps())
	}
}

func TestRetryJitterDeterministicBySeed(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		fc := NewFake(time.Unix(0, 0))
		r := NewRetrier(RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Jitter: 0.5}, fc, seed)
		_ = r.Do(context.Background(), func(context.Context, int) error { return errors.New("x") })
		return fc.Sleeps()
	}
	a, b := schedule(42), schedule(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	c := schedule(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical jitter: %v", a)
	}
	// Jittered delays stay within [delay*(1-j), delay].
	for i, d := range a {
		base := 100 * time.Millisecond << uint(i)
		if d < base/2 || d > base {
			t.Fatalf("sleep[%d] = %v outside [%v, %v]", i, d, base/2, base)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	var transitions []string
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Second, SuccessesToClose: 2}, fc,
		func(from, to BreakerState) { transitions = append(transitions, from.String()+"->"+to.String()) })

	// Closed: failures below threshold keep it closed; a success resets.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow while closed: %v", err)
		}
		b.Report(false)
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Report(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after success reset", b.State())
	}

	// Three consecutive failures open it.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow %d: %v", i, err)
		}
		b.Report(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v", err)
	}

	// Cooldown elapses: next Allow flips half-open and takes the probe
	// slot; a concurrent Allow is rejected.
	fc.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe Allow = %v", err)
	}

	// Probe fails: re-open, fresh cooldown.
	b.Report(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow right after re-open = %v", err)
	}

	// Cooldown again: two good probes close it (SuccessesToClose=2).
	fc.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Report(true)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open after 1/2 successes", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Report(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}

	st := b.Stats()
	if st.Opens != 2 || st.HalfOpens != 2 || st.Closes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	wantTransitions := []string{
		"closed->open", "open->half_open", "half_open->open",
		"open->half_open", "half_open->closed",
	}
	if fmt.Sprint(transitions) != fmt.Sprint(wantTransitions) {
		t.Fatalf("transitions = %v, want %v", transitions, wantTransitions)
	}
}

func TestBreakerLateReportWhileOpenIgnored(t *testing.T) {
	fc := NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second}, fc, nil)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); err != nil { // in-flight when the first fails
		t.Fatal(err)
	}
	b.Report(false) // opens
	b.Report(true)  // late success must not close an open circuit
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
}

// chaosGet runs one GET through a ChaosTransport-wrapped client and
// classifies the outcome.
func chaosGet(t *testing.T, hc *http.Client, url string) (status int, body string, err error) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		return resp.StatusCode, string(b), rerr
	}
	return resp.StatusCode, string(b), nil
}

func TestChaosTransportFaults(t *testing.T) {
	payload := strings.Repeat("x", 96<<10) // bigger than the 64KiB truncation window
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, payload)
	}))
	defer srv.Close()

	t.Run("drop", func(t *testing.T) {
		ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 1, DropRate: 1})
		_, _, err := chaosGet(t, &http.Client{Transport: ct}, srv.URL)
		if !errors.Is(err, ErrChaosDrop) {
			t.Fatalf("err = %v, want ErrChaosDrop", err)
		}
		if st := ct.Stats(); st.Drops != 1 || st.Requests != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("5xx", func(t *testing.T) {
		ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 1, ErrorRate: 1})
		status, body, err := chaosGet(t, &http.Client{Transport: ct}, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if status != 503 && status != 500 {
			t.Fatalf("status = %d, want 5xx", status)
		}
		if !strings.Contains(body, `"code"`) {
			t.Fatalf("5xx body lacks a wire code: %q", body)
		}
		if st := ct.Stats(); st.Errors5xx != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 1, TruncateRate: 1})
		// Retry a few times: a draw can set the cut point past a short
		// read, but the 96KiB payload always exceeds the 64KiB window.
		var lastErr error
		for i := 0; i < 5; i++ {
			_, _, err := chaosGet(t, &http.Client{Transport: ct}, srv.URL)
			lastErr = err
			if err != nil {
				break
			}
		}
		if lastErr == nil {
			t.Fatal("no truncation error across 5 full-rate attempts")
		}
		if st := ct.Stats(); st.Truncations == 0 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("latency", func(t *testing.T) {
		ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{
			Seed: 1, LatencyRate: 1, LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond,
		})
		start := time.Now()
		if _, _, err := chaosGet(t, &http.Client{Transport: ct}, srv.URL); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) < time.Millisecond {
			t.Fatal("no latency injected at rate 1")
		}
		if st := ct.Stats(); st.Latencies != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("clean", func(t *testing.T) {
		ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 1})
		status, body, err := chaosGet(t, &http.Client{Transport: ct}, srv.URL)
		if err != nil || status != 200 || len(body) != len(payload) {
			t.Fatalf("clean pass: status=%d len=%d err=%v", status, len(body), err)
		}
	})
}

func TestChaosTransportSeedDeterminism(t *testing.T) {
	plans := func(seed int64) string {
		ct := NewChaosTransport(http.DefaultTransport, ChaosConfig{
			Seed: seed, DropRate: 0.3, ErrorRate: 0.2, LatencyRate: 0.3, TruncateRate: 0.2,
		})
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			drop, status, latency, trunc := ct.plan()
			fmt.Fprintf(&sb, "%v/%d/%v/%.3f;", drop, status, latency, trunc)
		}
		return sb.String()
	}
	if plans(7) != plans(7) {
		t.Fatal("same seed produced different fault schedules")
	}
	if plans(7) == plans(8) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestChaosTransportLatencyHonorsContext(t *testing.T) {
	ct := NewChaosTransport(http.DefaultTransport, ChaosConfig{
		Seed: 1, LatencyRate: 1, LatencyMin: time.Hour, LatencyMax: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://127.0.0.1:1/never", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, rerr := ct.RoundTrip(req)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("RoundTrip = %v, want deadline exceeded", rerr)
	}
	if time.Since(start) > time.Second {
		t.Fatal("latency injection ignored the context")
	}
}

// State returns the current position (open circuits past their cooldown
// still report open until the next Allow flips them half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
