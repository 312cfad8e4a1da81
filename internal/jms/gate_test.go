//go:build !race

package jms

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"testing"
)

// TestGateNextMsgIDAllocs keeps the message-ID generator off fmt.Sprintf:
// building the ID is on the broker's publish path, and the concat form
// costs at most two allocations (digits + join).
func TestGateNextMsgIDAllocs(t *testing.T) {
	b := NewBroker("server-9", nil, nil)
	allocs := testing.AllocsPerRun(200, func() {
		_ = b.nextMsgID("orders")
	})
	if allocs > 2 {
		t.Fatalf("nextMsgID allocates %.1f times per call, want <= 2", allocs)
	}
}
