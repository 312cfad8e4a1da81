package benchtest

import "testing"

// e27AllocMargin is what a TCP echo may allocate per call beyond its
// handler's two objects. Measured 0.005–0.015 from 1 caller and
// 0.07–0.12 from 64 (slot and buffer pools refilled after each
// collection, the reply slab's share); half an allocation still fails one
// more allocation per call.
const e27AllocMargin = 0.5

// TestE27TCPCallAllocatesOnlyItsHandlers holds E27's allocation claim at
// a fifth of its length: on TCP, process-wide (client and server, both
// directions), a call allocates no more than the two objects its handler
// makes, plus e27AllocMargin, from 1 caller and from 64.
func TestE27TCPCallAllocatesOnlyItsHandlers(t *testing.T) {
	for _, callers := range []int{1, 64} {
		res, _ := e27TCP(callers, e27LoadDur/5)
		t.Logf("%d callers: %.3f allocs/call, %.0f calls/s", callers, res.allocsPer, res.callsPerSec)
		if res.allocsPer > 2+e27AllocMargin {
			t.Errorf("%d callers: a TCP echo allocates %.3f a call, over the handler's 2 + %v", callers, res.allocsPer, e27AllocMargin)
		}
	}
}
