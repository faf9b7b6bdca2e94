package client

import (
	"context"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestRetryAfterHintForms pins both RFC 9110 §10.2.3 Retry-After
// shapes — delta-seconds and HTTP-date — plus the junk the parser must
// shrug off. now anchors the date form.
func TestRetryAfterHintForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"delta seconds", "3", 3 * time.Second},
		{"delta large", "120", 2 * time.Minute},
		{"delta zero", "0", 0},
		{"delta negative", "-5", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date GMT form", "Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second},
		{"http date at now", now.Format(http.TimeFormat), 0},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		// RFC 850 and asctime are the obsolete-but-mandatory forms
		// http.ParseTime accepts.
		{"rfc850 date", "Saturday, 08-Aug-26 12:01:00 GMT", time.Minute},
		{"asctime date", "Sat Aug  8 12:02:00 2026", 2 * time.Minute},
		{"garbage", "soon", 0},
		{"empty", "", 0},
		{"float delta", "1.5", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterHint(tc.value, now); got != tc.want {
				t.Fatalf("retryAfterHint(%q) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
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
