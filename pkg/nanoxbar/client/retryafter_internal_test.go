package client

import (
	"context"
	"math"
	"math/big"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// retryAfterNow anchors the date form of the Retry-After cases.
var retryAfterNow = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// retryAfterCases are both RFC 9110 §10.2.3 Retry-After shapes —
// delta-seconds and HTTP-date — plus the junk the parser must shrug
// off, each with its hint at retryAfterNow.
var retryAfterCases = []struct {
	name  string
	value string
	want  time.Duration
}{
	{"delta seconds", "3", 3 * time.Second},
	{"delta large", "120", 2 * time.Minute},
	{"delta zero", "0", 0},
	{"delta negative", "-5", 0},
	// Deltas past the longest Duration saturate: n·1s overflows int64
	// from 9223372037 on, and 18446744074 wraps to 290 ms.
	{"delta at max duration", "9223372036", 9223372036 * time.Second},
	{"delta past max duration", "9223372037", math.MaxInt64},
	{"delta wrapping to 290ms", "18446744074", math.MaxInt64},
	{"delta past int64", "99999999999999999999", math.MaxInt64},
	{"http date future", retryAfterNow.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
	{"http date GMT form", "Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second},
	{"http date at now", retryAfterNow.Format(http.TimeFormat), 0},
	{"http date past", retryAfterNow.Add(-time.Hour).Format(http.TimeFormat), 0},
	// RFC 850 and asctime are the obsolete-but-mandatory forms
	// http.ParseTime accepts.
	{"rfc850 date", "Saturday, 08-Aug-26 12:01:00 GMT", time.Minute},
	{"asctime date", "Sat Aug  8 12:02:00 2026", 2 * time.Minute},
	{"garbage", "soon", 0},
	{"empty", "", 0},
	{"float delta", "1.5", 0},
}

// TestRetryAfterHintForms pins the hint of every retryAfterCases row.
func TestRetryAfterHintForms(t *testing.T) {
	for _, tc := range retryAfterCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterHint(tc.value, retryAfterNow); got != tc.want {
				t.Fatalf("retryAfterHint(%q) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

// FuzzRetryAfterHint: no header value gives a negative hint, and a
// positive decimal integer n gives min(n·1s, the longest Duration),
// computed here in arbitrary precision.
func FuzzRetryAfterHint(f *testing.F) {
	for _, tc := range retryAfterCases {
		f.Add(tc.value)
	}
	maxDuration := big.NewInt(math.MaxInt64)
	f.Fuzz(func(t *testing.T, value string) {
		got := retryAfterHint(value, retryAfterNow)
		if got < 0 {
			t.Fatalf("retryAfterHint(%q) = %v, a negative hint", value, got)
		}
		n, ok := new(big.Int).SetString(value, 10)
		if !ok || n.Sign() <= 0 {
			return
		}
		want := n.Mul(n, big.NewInt(int64(time.Second)))
		if want.Cmp(maxDuration) > 0 {
			want = maxDuration
		}
		if got != time.Duration(want.Int64()) {
			t.Fatalf("retryAfterHint(%q) = %v, want %v", value, got, time.Duration(want.Int64()))
		}
	})
}

// TestDeadlineHeaderNeverShortensBudget: the forwarded X-Deadline-Ms
// budget reaches at least to the client's own deadline, so the server
// never cancels a request the client still waits for.
func TestDeadlineHeaderNeverShortensBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond+900*time.Microsecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://example.invalid/v2/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	setDeadlineHeader(req)
	ms, err := strconv.ParseInt(req.Header.Get("X-Deadline-Ms"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ctx.Deadline()
	if left := time.Until(d); time.Duration(ms)*time.Millisecond < left {
		t.Fatalf("X-Deadline-Ms %d ends before the client's deadline, %v away", ms, left)
	}
}
