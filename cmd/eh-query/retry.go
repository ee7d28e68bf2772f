package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy is the client half of the server's failure contract:
// shed responses (503 overload/degraded, 429) are retried with jittered
// exponential backoff, honoring the server's Retry-After hint as a
// floor. Transport errors and every other status pass straight through
// — the caller decides what a 400 or a 500 means.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, the first
	// included (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff, doubled per attempt
	// (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the computed backoff, before the Retry-After
	// floor is applied (default 2s).
	MaxBackoff time.Duration
	// Seed feeds the jitter RNG so runs are reproducible (default 1).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// RetryClient posts JSON bodies with the retry policy applied. Safe for
// concurrent use.
type RetryClient struct {
	c   *http.Client
	pol RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Int64
}

// NewRetryClient wraps c (nil selects http.DefaultClient) with pol.
func NewRetryClient(c *http.Client, pol RetryPolicy) *RetryClient {
	if c == nil {
		c = http.DefaultClient
	}
	pol = pol.withDefaults()
	return &RetryClient{c: c, pol: pol, rng: rand.New(rand.NewSource(pol.Seed))}
}

// Retries returns how many backoff-and-resend cycles the client has
// taken across all requests.
func (rc *RetryClient) Retries() int64 { return rc.retries.Load() }

// Post sends body until it gets a non-shed response or attempts run
// out. The final shed response (body undrained) is returned rather than
// an error so callers can account the 503 exactly like an unwrapped
// client would.
func (rc *RetryClient) Post(url, contentType string, body []byte) (*http.Response, error) {
	return rc.do(func() (*http.Response, error) {
		return rc.c.Post(url, contentType, bytes.NewReader(body))
	})
}

// Get fetches url under the same shed-retry policy as Post.
func (rc *RetryClient) Get(url string) (*http.Response, error) {
	return rc.do(func() (*http.Response, error) { return rc.c.Get(url) })
}

func (rc *RetryClient) do(send func() (*http.Response, error)) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		resp, err := send()
		if err != nil {
			return nil, err
		}
		if !shedStatus(resp.StatusCode) || attempt >= rc.pol.MaxAttempts {
			return resp, nil
		}
		d := rc.delay(attempt, resp)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rc.retries.Add(1)
		time.Sleep(d)
	}
}

// delay is the wait before resending after shed response resp: the
// jittered backoff, raised (never lowered) to the server's Retry-After.
func (rc *RetryClient) delay(attempt int, resp *http.Response) time.Duration {
	return max(rc.backoff(attempt), retryAfter(resp))
}

func shedStatus(code int) bool {
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// retryAfter parses the response's Retry-After seconds (0 when absent
// or not an integer; HTTP-date values are rare enough to ignore here).
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoff is the jittered exponential schedule: base doubled per
// attempt, capped, then scaled by a uniform [0.5,1.0) factor so a
// synchronized burst of shed clients decorrelates instead of
// stampeding back in lockstep.
func (rc *RetryClient) backoff(attempt int) time.Duration {
	d := rc.pol.BaseBackoff << uint(attempt-1)
	if d > rc.pol.MaxBackoff || d <= 0 {
		d = rc.pol.MaxBackoff
	}
	rc.mu.Lock()
	f := 0.5 + 0.5*rc.rng.Float64()
	rc.mu.Unlock()
	return time.Duration(float64(d) * f)
}
