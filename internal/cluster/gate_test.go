//go:build !race

package cluster

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// A converged cluster's beats repeat bytes every receiver has decoded
// before, so a steady interval costs a member only the timer of its next
// tick (TestSteadyHeartbeatKeepsPeersAlive holds that the peers stay alive
// on them).
func TestGateSteadyHeartbeatAllocsPerMember(t *testing.T) {
	clk, ms, failed := steadyCluster(t)
	const intervals = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clk.Advance(100 * time.Millisecond)
	// The best of three windows: a stray malloc of a goroutine another
	// test left behind lands in one window, an allocation per beat in all.
	perMember := math.Inf(1)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < intervals; i++ {
			clk.Advance(100 * time.Millisecond)
		}
		runtime.ReadMemStats(&after)
		perMember = min(perMember, float64(after.Mallocs-before.Mallocs)/float64(intervals*len(ms)))
	}
	t.Logf("%.3f allocations per member per interval", perMember)
	if perMember > 1 {
		t.Fatalf("%.3f allocations per member per interval, want at most 1 (the next tick's timer)", perMember)
	}
	checkSteady(t, ms, failed, 3*intervals)
}
