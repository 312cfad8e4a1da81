//go:build !race

package benchtest

// Allocation pins (`make gates`) of the experiments' claims: the race
// runtime drops sync.Pool items and allocates on its own, so these tests
// build only without it.

import "testing"

// TestGateE29SamplingCost holds E29's claim at small N: 1 % head-based
// sampling costs at most half an allocation per call over no tracing, and
// tracing every call costs at least three times as many allocations. The
// allocation column is the figure that repeats run to run; calls/s does
// not.
func TestGateE29SamplingCost(t *testing.T) {
	const calls = 800
	_, disabled := e29Run(0, calls)
	_, sampled := e29Run(0.01, calls)
	_, all := e29Run(1, calls)
	t.Logf("allocs/call: disabled %.2f, 1%% %.2f, 100%% %.2f", disabled, sampled, all)
	if sampled > disabled+0.5 {
		t.Errorf("1%% sampling costs %.2f allocs/call, disabled %.2f: more than 0.5 over", sampled, disabled)
	}
	if all < 3*disabled {
		t.Errorf("100%% sampling costs %.2f allocs/call, under 3x disabled's %.2f", all, disabled)
	}
}

// e27AllocMargin is what a TCP echo may allocate per call beyond its
// handler's two objects. Measured 0.005–0.015 from 1 caller and
// 0.07–0.12 from 64 (slot and buffer pools refilled after each
// collection, the reply slab's share); half an allocation still fails one
// more allocation per call.
const e27AllocMargin = 0.5

// TestGateE27TCPCallAllocatesOnlyItsHandlers holds E27's allocation claim at
// a fifth of its length: on TCP, process-wide (client and server, both
// directions), a call allocates no more than the two objects its handler
// makes, plus e27AllocMargin, from 1 caller and from 64.
func TestGateE27TCPCallAllocatesOnlyItsHandlers(t *testing.T) {
	for _, callers := range []int{1, 64} {
		res, _ := e27TCP(callers, e27LoadDur/5)
		t.Logf("%d callers: %.3f allocs/call, %.0f calls/s", callers, res.allocsPer, res.callsPerSec)
		if res.allocsPer > 2+e27AllocMargin {
			t.Errorf("%d callers: a TCP echo allocates %.3f a call, over the handler's 2 + %v", callers, res.allocsPer, e27AllocMargin)
		}
	}
}
