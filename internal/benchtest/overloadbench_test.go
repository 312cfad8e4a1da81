package benchtest

import "testing"

// TestE30ResilientServesWithinBudget holds E30's claim at a fifth of its
// length: under the flash burst and the slow server, the protected stack
// fails no request, and every request it serves was accepted within its
// budget, so the p99 of what it serves is too. (The max is exact; the
// histogram interpolates its p99 within a bucket that straddles the
// budget.)
func TestE30ResilientServesWithinBudget(t *testing.T) {
	r := e30Run(e30Config{name: "resilient", resilient: true, burst: true, slow: true, ticks: 60})
	t.Logf("offered %d: ok %d, busy %d, expired %d, failed %d; p50 %v, p99 %v, max %v",
		r.offered, r.ok, r.busy, r.expired, r.failed, r.p50, r.p99, r.max)
	if r.failed != 0 {
		t.Errorf("%d requests failed", r.failed)
	}
	if r.ok == 0 || r.max > e30Budget {
		t.Errorf("served %d, the slowest in %v, want some, all within the %v budget", r.ok, r.max, e30Budget)
	}
}
