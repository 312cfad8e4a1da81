package rmi

import (
	"context"
	"sync"
	"time"

	"wls/internal/cluster"
	"wls/internal/metrics"
	"wls/internal/vclock"
)

// This file is the client half of the overload-protection story: a shared
// retry budget (token bucket) so a struggling cluster is not drowned in
// retries, capped exponential backoff with deterministic jitter, and a
// per-server circuit breaker. One Resilience instance is shared by every
// stub a server (or router) creates, so the budget and breakers see the
// caller's aggregate behaviour — a per-stub bucket would just shift the
// retry storm one layer down.

// ResilienceConfig tunes a Resilience. The zero value selects defaults.
type ResilienceConfig struct {
	// RetryBudget is the token-bucket capacity: the number of retries the
	// caller may have "banked" at once (default 10). Every retry spends a
	// token; only successes earn them back.
	RetryBudget int
	// RetryRatio is the fraction of a token earned per successful call
	// (default 0.1: one banked retry per ten successes).
	RetryRatio float64
	// BackoffBase is the delay before the first retry (default 5ms); each
	// further retry doubles it up to BackoffMax (default 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// server's breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open probe (default 500ms).
	BreakerCooldown time.Duration
	// Seed drives the backoff jitter. The jitter sequence is a pure
	// function of (Seed, spend counter) on the virtual clock, which keeps
	// chaos timelines byte-identical per (seed, config).
	Seed int64
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.RetryBudget <= 0 {
		c.RetryBudget = 10
	}
	if c.RetryRatio <= 0 {
		c.RetryRatio = 0.1
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	return c
}

// BreakerState is one server's circuit-breaker state.
type BreakerState int

// Breaker states: Closed admits traffic, Open refuses it until the
// cooldown elapses, HalfOpen admits a single probe whose outcome decides
// between re-closing and re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one server's circuit state. All fields are guarded by
// Resilience.mu.
type breaker struct {
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	stateG   *metrics.Gauge
}

// Resilience is the shared client-side overload protection consulted by
// every stub built with WithResilience.
type Resilience struct {
	cfg   ResilienceConfig
	clock vclock.Clock
	reg   *metrics.Registry

	retries       *metrics.Counter // retry tokens spent
	retryDenied   *metrics.Counter // retries refused: bucket empty
	breakerOpened *metrics.Counter
	breakerClosed *metrics.Counter
	tokensG       *metrics.Gauge // banked tokens, floored

	// mu guards the token bucket, the jitter counter and the breaker map.
	// Per-server breaker gauges are resolved from the metrics registry
	// while mu is held (first sighting of a server), so mu strictly
	// precedes the registry's lock.
	//
	//wls:lockorder rmi.Resilience.mu<metrics.Registry.mu
	mu        sync.Mutex
	tokens    float64
	jitterCtr uint64
	breakers  map[string]*breaker
}

// NewResilience builds a Resilience on the given clock, exporting its state
// into reg (a private registry when nil).
func NewResilience(cfg ResilienceConfig, clock vclock.Clock, reg *metrics.Registry) *Resilience {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Resilience{
		cfg:           cfg,
		clock:         clock,
		reg:           reg,
		retries:       reg.Counter("rmi.retries"),
		retryDenied:   reg.Counter("rmi.retry.denied"),
		breakerOpened: reg.Counter("rmi.breaker.opened"),
		breakerClosed: reg.Counter("rmi.breaker.closed"),
		tokensG:       reg.Gauge("rmi.retry.tokens"),
		tokens:        float64(cfg.RetryBudget),
		breakers:      make(map[string]*breaker),
	}
	r.tokensG.Set(int64(r.tokens))
	return r
}

// forServer returns (creating on first sight) the server's breaker.
// Callers hold r.mu.
func (r *Resilience) forServer(name string) *breaker {
	b := r.breakers[name]
	if b == nil {
		b = &breaker{stateG: r.reg.Gauge("rmi.breaker.state." + name)}
		r.breakers[name] = b
	}
	return b
}

func (r *Resilience) setState(b *breaker, s BreakerState) {
	b.state = s
	b.stateG.Set(int64(s))
}

// Allow reports whether an attempt against the named server should be
// issued: always while its breaker is closed, never while open (until the
// cooldown promotes it to half-open), and for at most one in-flight probe
// while half-open.
func (r *Resilience) Allow(server string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.forServer(server)
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if r.clock.Since(b.openedAt) < r.cfg.BreakerCooldown {
			return false
		}
		r.setState(b, BreakerHalfOpen)
		return true
	default: // half-open
		return !b.probing
	}
}

// markAttempt records that an attempt is actually being issued against the
// server; a half-open breaker claims it as its probe.
func (r *Resilience) markAttempt(server string) {
	r.mu.Lock()
	if b := r.breakers[server]; b != nil && b.state == BreakerHalfOpen {
		b.probing = true
	}
	r.mu.Unlock()
}

// recordSuccess notes a completed call (including application errors: the
// server executed the request, so it is healthy) and earns retry credit.
func (r *Resilience) recordSuccess(server string) {
	r.mu.Lock()
	r.tokens += r.cfg.RetryRatio
	if max := float64(r.cfg.RetryBudget); r.tokens > max {
		r.tokens = max
	}
	r.tokensG.Set(int64(r.tokens))
	b := r.forServer(server)
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		r.setState(b, BreakerClosed)
		r.breakerClosed.Inc()
	}
	r.mu.Unlock()
}

// recordFailure notes a transport/system-level failure against the server.
func (r *Resilience) recordFailure(server string) {
	r.mu.Lock()
	b := r.forServer(server)
	b.probing = false
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= r.cfg.BreakerThreshold {
			r.setState(b, BreakerOpen)
			b.openedAt = r.clock.Now()
			r.breakerOpened.Inc()
		}
	case BreakerHalfOpen:
		// The probe failed: back to open, cooldown restarts.
		r.setState(b, BreakerOpen)
		b.openedAt = r.clock.Now()
		r.breakerOpened.Inc()
		// An already-open breaker stays open without refreshing openedAt, so
		// forced probes under total outage cannot postpone half-open forever.
	}
	r.mu.Unlock()
}

// State returns the server's current breaker state (closed if never seen).
func (r *Resilience) State(server string) BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.breakers[server]; b != nil {
		return b.state
	}
	return BreakerClosed
}

// SpendRetry takes one token from the retry budget, reporting false (and
// counting the denial) when the bucket is empty.
func (r *Resilience) SpendRetry() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tokens < 1 {
		r.retryDenied.Inc()
		return false
	}
	r.tokens--
	r.tokensG.Set(int64(r.tokens))
	r.retries.Inc()
	return true
}

// splitmix64 is the jitter hash: a tiny, well-mixed PRF so the jitter for
// spend n is a pure function of (seed, n) with no shared rand.Rand state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff returns the pre-retry delay for retry number n (n=1 is the first
// retry): capped exponential growth scaled by a deterministic jitter factor
// in [0.5, 1.0). Jitter de-synchronizes retry waves from concurrent
// callers; deriving it from a counter instead of wall time keeps virtual-
// clock chaos timelines byte-identical.
func (r *Resilience) backoff(n int) time.Duration {
	d := r.cfg.BackoffBase
	for i := 1; i < n && d < r.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > r.cfg.BackoffMax {
		d = r.cfg.BackoffMax
	}
	r.mu.Lock()
	r.jitterCtr++
	c := r.jitterCtr
	r.mu.Unlock()
	h := splitmix64(uint64(r.cfg.Seed) ^ c)
	frac := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// ---------------------------------------------------------------------------
// Breaker-aware candidate ordering

// BreakerPolicy wraps another load-balancing policy and demotes servers
// whose breaker is open to the back of the candidate order: healthy
// servers absorb the traffic, and an open server is only reached when
// everything healthier has already failed. It never removes candidates —
// the per-attempt Allow gate decides whether an attempt is actually
// issued, and a last-resort probe is always permitted when every breaker
// is open.
type BreakerPolicy struct {
	Next Policy
	R    *Resilience
}

// Order implements Policy.
func (p BreakerPolicy) Order(ctx context.Context, localName string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	ordered := p.Next.Order(ctx, localName, cands)
	if p.R == nil {
		return ordered
	}
	healthy := make([]cluster.MemberInfo, 0, len(ordered))
	var broken []cluster.MemberInfo
	for _, c := range ordered {
		if p.R.State(c.Name) == BreakerOpen {
			broken = append(broken, c)
		} else {
			healthy = append(healthy, c)
		}
	}
	return append(healthy, broken...)
}
