//go:build !race

package tx

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"testing"

	"wls/internal/vclock"
)

// TestGateTwoPhaseCommitAllocatesOnlyItsTx: a two-phase commit over two
// resources allocates its Tx and its id, and nothing else — not the phase
// fan-out, the completion channel or the done-record queue.
func TestGateTwoPhaseCommitAllocatesOnlyItsTx(t *testing.T) {
	m := NewManager("s1", vclock.NewVirtualAtZero(), nopLog{}, nil)
	commit := func() {
		tr := m.Begin(0)
		tr.Enlist("a", nopResource{})
		tr.Enlist("b", nopResource{})
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		commit()
	}
	got := testing.AllocsPerRun(500, commit)
	m.Drain()
	if got > 2 {
		t.Fatalf("a two-phase commit allocates %v, want at most 2 (the Tx and its id)", got)
	}
	t.Logf("two-phase commit: %v allocs", got)
}
