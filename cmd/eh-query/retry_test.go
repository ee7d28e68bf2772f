package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// shedServer answers the first shed requests with status (and the given
// Retry-After, if any), then 200 "ok"; it counts every request.
func shedServer(t *testing.T, shed int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(hits.Add(1)) <= shed {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			io.WriteString(w, "shed")
			return
		}
		io.WriteString(w, "ok")
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func TestRetryClientAttemptCap(t *testing.T) {
	fast := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	for _, tc := range []struct {
		name         string
		shed, status int
		wantStatus   int
		wantHits     int64
		wantRetries  int64
	}{
		{"503 then ok", 1, http.StatusServiceUnavailable, http.StatusOK, 2, 1},
		{"429 then ok", 2, http.StatusTooManyRequests, http.StatusOK, 3, 2},
		// Attempts run out: the last shed response comes back, not an error.
		{"always shed", 1 << 30, http.StatusServiceUnavailable, http.StatusServiceUnavailable, 3, 2},
		// Anything else is the caller's business: no resend.
		{"500 passes through", 1 << 30, http.StatusInternalServerError, http.StatusInternalServerError, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, method := range []string{"POST", "GET"} {
				ts, hits := shedServer(t, tc.shed, tc.status, "0")
				rc := NewRetryClient(ts.Client(), fast)
				var resp *http.Response
				var err error
				if method == "POST" {
					resp, err = rc.Post(ts.URL, "application/json", []byte(`{}`))
				} else {
					resp, err = rc.Get(ts.URL)
				}
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.wantStatus || len(body) == 0 {
					t.Fatalf("%s: status %d body %q, want %d with its body undrained", method, resp.StatusCode, body, tc.wantStatus)
				}
				if hits.Load() != tc.wantHits || rc.Retries() != tc.wantRetries {
					t.Fatalf("%s: %d requests / %d retries, want %d / %d", method, hits.Load(), rc.Retries(), tc.wantHits, tc.wantRetries)
				}
			}
		})
	}
	// MaxAttempts 1 disables retries.
	ts, hits := shedServer(t, 1, http.StatusServiceUnavailable, "")
	resp, err := NewRetryClient(ts.Client(), RetryPolicy{MaxAttempts: 1}).Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hits.Load() != 1 {
		t.Fatalf("MaxAttempts 1: status %d after %d requests", resp.StatusCode, hits.Load())
	}
}

// TestRetryAfterIsAFloor: the server's hint raises the computed backoff
// and never lowers it; the backoff itself is base·2^(attempt-1), capped,
// jittered into [½, 1).
func TestRetryAfterIsAFloor(t *testing.T) {
	rc := NewRetryClient(nil, RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 300 * time.Millisecond})
	shed := func(retryAfter string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Header: h}
	}
	for i := 0; i < 50; i++ {
		if d := rc.delay(1, shed("")); d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Fatalf("attempt 1 backoff %v outside [50ms,100ms)", d)
		}
		if d := rc.delay(2, shed("junk")); d < 100*time.Millisecond || d >= 200*time.Millisecond {
			t.Fatalf("attempt 2 backoff %v outside [100ms,200ms)", d)
		}
		if d := rc.delay(9, shed("-4")); d < 150*time.Millisecond || d >= 300*time.Millisecond {
			t.Fatalf("capped backoff %v outside [150ms,300ms)", d)
		}
		if d := rc.delay(1, shed("2")); d != 2*time.Second {
			t.Fatalf("Retry-After 2 with a sub-second backoff waits %v, want 2s", d)
		}
	}
	slow := NewRetryClient(nil, RetryPolicy{BaseBackoff: 10 * time.Second, MaxBackoff: 10 * time.Second})
	if d := slow.delay(1, shed("1")); d < 5*time.Second {
		t.Fatalf("Retry-After 1 lowered a 5-10s backoff to %v", d)
	}
}
