//go:build !race

package benchtest

import "testing"

// TestE29SamplingCost holds E29's claim at small N: 1 % head-based
// sampling costs at most half an allocation per call over no tracing, and
// tracing every call costs at least three times as many allocations. The
// allocation column is the figure that repeats run to run; calls/s does
// not.
func TestE29SamplingCost(t *testing.T) {
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
