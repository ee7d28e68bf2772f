package server

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// errDegraded is the degraded read-only refusal: the durability breaker
// is open, so writes fail fast while queries and snapshots keep serving.
var errDegraded = errors.New("server degraded: durability failure, writes disabled (read-only mode)")

// resilience holds the failure-contract counters /metrics exports. They
// are booked at the single classification point (errStatus) plus the
// panic-recovery boundaries, so every 499/504/500-by-panic/degraded-503
// increments exactly one of them.
type resilience struct {
	recoveredPanics  atomic.Int64
	cancelledClients atomic.Int64
	deadlineExceeded atomic.Int64
	degradedRejected atomic.Int64
}

// breaker is the durability circuit breaker behind degraded read-only
// mode. It counts consecutive persistent write failures (WAL append or
// fsync errors surfacing as core.ErrDurability); at the threshold it
// opens, and an open breaker makes /update fail fast with Retry-After
// while reads serve normally. A background probe loop then exercises
// the disk (Engine.ProbeDurability → wal.Log.Probe, which also repairs
// a poisoned log by truncating to the last acked record); the first
// successful probe closes the breaker and writes resume.
type breaker struct {
	threshold  int // < 0 disables the breaker entirely
	probeEvery time.Duration
	probe      func() error

	open   atomic.Bool
	consec atomic.Int64
	trips  atomic.Int64

	// notify, when set, receives breaker state transitions ("breaker_trip",
	// "breaker_recover") for the structured event log. Called outside any
	// lock; the trip CAS and the recovery Store serialize the transitions.
	notify func(kind string, fields map[string]any)

	quit     chan struct{}
	quitOnce sync.Once
	probing  sync.WaitGroup
}

func newBreaker(threshold int, probeEvery time.Duration, probe func() error) *breaker {
	return &breaker{
		threshold:  threshold,
		probeEvery: probeEvery,
		probe:      probe,
		quit:       make(chan struct{}),
	}
}

// allow reports whether writes may proceed.
func (b *breaker) allow() bool { return !b.open.Load() }

// success books a durable write: any failure streak is forgiven.
func (b *breaker) success() { b.consec.Store(0) }

// failure books one durability failure; at the threshold the breaker
// opens and the probe loop starts. The CompareAndSwap makes concurrent
// failing updates race to at most one trip (and one probe goroutine).
func (b *breaker) failure() {
	if b.threshold < 0 {
		return
	}
	if n := b.consec.Add(1); n >= int64(b.threshold) {
		if b.open.CompareAndSwap(false, true) {
			b.trips.Add(1)
			if b.notify != nil {
				b.notify("breaker_trip", map[string]any{"consecutive_failures": n, "trips": b.trips.Load()})
			}
			b.probing.Add(1)
			go b.probeLoop()
		}
	}
}

// probeLoop probes the disk until it heals or the server closes. It
// runs only while the breaker is open — closed breakers cost nothing.
func (b *breaker) probeLoop() {
	defer b.probing.Done()
	t := time.NewTicker(b.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-b.quit:
			return
		case <-t.C:
			if b.probe() == nil {
				b.consec.Store(0)
				b.open.Store(false)
				if b.notify != nil {
					b.notify("breaker_recover", map[string]any{"trips": b.trips.Load()})
				}
				return
			}
		}
	}
}

// close stops any probe loop and waits for it to exit.
func (b *breaker) close() {
	b.quitOnce.Do(func() { close(b.quit) })
	b.probing.Wait()
}

// SetBootPhase publishes the server's boot phase ("loading",
// "restoring", "replaying-wal", "ready", "draining", ...). /readyz
// reports ready only in the "ready" phase with a closed breaker;
// embedders that construct a server over a pre-loaded engine start in
// "ready" and never need to call this.
func (s *Server) SetBootPhase(phase string) {
	s.bootPhase.Store(phase)
	s.cfg.Events.Emit("boot_phase", 0, map[string]any{"phase": phase})
}

// handleHealth is /healthz: pure liveness.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReady is /readyz: readiness for load balancers and orchestration.
// Unlike /healthz (pure liveness), it goes unready while the server is
// still booting — restoring a snapshot, replaying the WAL — or degraded.
// Degraded servers still answer reads, so a caller that only queries may
// choose to keep routing; the endpoint reports "degraded" separately so
// both policies are expressible.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	phase, _ := s.bootPhase.Load().(string)
	degraded := !s.brk.allow()
	ready := phase == "ready" && !degraded
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.retryAfterValue())
	}
	writeJSON(w, code, map[string]any{
		"ready":    ready,
		"phase":    phase,
		"degraded": degraded,
	})
}
