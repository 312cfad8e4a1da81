package rmi

import (
	"testing"
	"time"

	"wls/internal/metrics"
	"wls/internal/vclock"
)

// White-box coverage of the resilience primitives: the breaker state
// machine, the retry token bucket and the deterministic backoff jitter.

func newTestResilience(seed int64) (*Resilience, *vclock.Virtual, *metrics.Registry) {
	clk := vclock.NewVirtualAtZero()
	reg := metrics.NewRegistry()
	return NewResilience(seed, clk, reg), clk, reg
}

func TestBreakerStateMachine(t *testing.T) {
	r, clk, reg := newTestResilience(0)
	const srv = "server-1"

	// Closed: failures below the threshold keep admitting.
	for i := 0; i < breakerThreshold-1; i++ {
		if !r.Allow(srv) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		r.recordFailure(srv)
	}
	if st := r.State(srv); st != BreakerClosed {
		t.Fatalf("state after %d failures = %v, want closed", breakerThreshold-1, st)
	}

	// Threshold failure opens it; open refuses until the cooldown elapses.
	r.recordFailure(srv)
	if st := r.State(srv); st != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	if got := reg.Counter("rmi.breaker.opened").Value(); got != 1 {
		t.Fatalf("breaker.opened = %d, want 1", got)
	}
	if r.Allow(srv) {
		t.Fatal("open breaker admitted before cooldown")
	}

	// Cooldown promotes to half-open with exactly one probe slot.
	clk.Advance(breakerCooldown)
	if !r.Allow(srv) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if st := r.State(srv); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	r.markAttempt(srv)
	if r.Allow(srv) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe: back to open, cooldown restarts from the probe failure.
	r.recordFailure(srv)
	if st := r.State(srv); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	clk.Advance(breakerCooldown / 2)
	if r.Allow(srv) {
		t.Fatal("re-opened breaker admitted before a fresh cooldown")
	}

	// Successful probe re-closes and is counted.
	clk.Advance(breakerCooldown)
	if !r.Allow(srv) {
		t.Fatal("breaker refused the second probe")
	}
	r.markAttempt(srv)
	r.recordSuccess(srv)
	if st := r.State(srv); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if got := reg.Counter("rmi.breaker.closed").Value(); got != 1 {
		t.Fatalf("breaker.closed = %d, want 1", got)
	}
}

// TestBreakerOpenDoesNotRefreshOnFailure pins the anti-livelock rule:
// failures recorded while already open (forced last-resort probes under a
// total outage) must not postpone the half-open transition.
func TestBreakerOpenDoesNotRefreshOnFailure(t *testing.T) {
	r, clk, _ := newTestResilience(0)
	const srv = "server-1"
	for i := 0; i < breakerThreshold; i++ {
		r.recordFailure(srv)
	}
	if st := r.State(srv); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	clk.Advance(breakerCooldown * 9 / 10)
	r.recordFailure(srv) // while open: must not restart the cooldown
	clk.Advance(breakerCooldown / 10)
	if !r.Allow(srv) {
		t.Fatal("failure while open postponed the half-open transition")
	}
}

func TestRetryTokenBucket(t *testing.T) {
	r, _, reg := newTestResilience(0)
	// Bucket starts full.
	for i := 0; i < retryBudget; i++ {
		if !r.SpendRetry() {
			t.Fatalf("spend %d refused with tokens banked", i)
		}
	}
	if r.SpendRetry() {
		t.Fatal("empty bucket granted a retry")
	}
	if got := reg.Counter("rmi.retry.denied").Value(); got != 1 {
		t.Fatalf("retry.denied = %d, want 1", got)
	}
	// Successes earn credit: successesPerToken-1 of them grant no retry;
	// one more grants exactly one.
	for i := 0; i < successesPerToken-1; i++ {
		r.recordSuccess("server-1")
	}
	if r.SpendRetry() {
		t.Fatalf("%d successes granted a retry", successesPerToken-1)
	}
	r.recordSuccess("server-1")
	if !r.SpendRetry() {
		t.Fatalf("%d successes did not earn a token", successesPerToken)
	}
	if r.SpendRetry() {
		t.Fatal("one earned token granted a second retry")
	}
	if got := reg.Counter("rmi.retries").Value(); got != retryBudget+1 {
		t.Fatalf("retries = %d, want %d", got, retryBudget+1)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a, _, _ := newTestResilience(42)
	b, _, _ := newTestResilience(42)
	other, _, _ := newTestResilience(43)

	var seqA, seqB, seqO []time.Duration
	for n := 1; n <= 12; n++ {
		seqA = append(seqA, a.backoff(n))
		seqB = append(seqB, b.backoff(n))
		seqO = append(seqO, other.backoff(n))
	}
	differs := false
	for n := 1; n <= 12; n++ {
		da, db := seqA[n-1], seqB[n-1]
		if da != db {
			t.Fatalf("backoff(%d) not deterministic: %v vs %v", n, da, db)
		}
		if da != seqO[n-1] {
			differs = true
		}
		// Uncapped growth is base<<(n-1); jitter scales into [0.5, 1.0).
		exp := backoffBase << (n - 1)
		if exp > backoffMax || exp <= 0 {
			exp = backoffMax
		}
		if da < exp/2 || da >= exp {
			t.Fatalf("backoff(%d) = %v outside [%v, %v)", n, da, exp/2, exp)
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}
