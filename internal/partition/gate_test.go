//go:build !race

package partition

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"testing"
)

// The ring lookup is on the request hot path: it must not allocate.
func TestGateRingLookupZeroAlloc(t *testing.T) {
	r := New(Config{Seed: 5}, names(32))
	var buf [4]string
	var sink string
	if a := testing.AllocsPerRun(1000, func() {
		sink = r.Owner("session-abc-123")
	}); a != 0 {
		t.Fatalf("Owner allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		reps := r.ReplicasInto("session-abc-123", buf[:0])
		sink = reps[0]
	}); a != 0 {
		t.Fatalf("ReplicasInto allocates %.1f/op, want 0", a)
	}
	// The full walk, as secondary placement runs it: every member visited.
	n := 0
	count := func(string) bool { n++; return true }
	if a := testing.AllocsPerRun(1000, func() {
		n = 0
		r.Walk("session-abc-123", count)
	}); a != 0 || n != 32 {
		t.Fatalf("Walk allocates %.1f/op and visits %d of 32 members, want 0 and 32", a, n)
	}
	_ = sink
}
