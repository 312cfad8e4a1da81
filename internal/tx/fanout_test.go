package tx

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"wls/internal/vclock"
)

// nopResource votes yes and commits without doing anything.
type nopResource struct{}

func (nopResource) Prepare(string) error  { return nil }
func (nopResource) Commit(string) error   { return nil }
func (nopResource) Rollback(string) error { return nil }

// nopLog keeps nothing.
type nopLog struct{}

func (nopLog) Append(Record) error        { return nil }
func (nopLog) Records() ([]Record, error) { return nil, nil }

// noVoter votes no with its own error; slow makes its vote the last in.
type noVoter struct {
	err  error
	slow bool
}

func (v noVoter) Prepare(string) error {
	if v.slow {
		time.Sleep(5 * time.Millisecond)
	}
	return v.err
}
func (noVoter) Commit(string) error   { return nil }
func (noVoter) Rollback(string) error { return nil }

// TestNoVoteNamesItsResourceInEnlistOrder: when resource k votes no, the
// abort is reported as resource k's, even when a resource enlisted after
// it also votes no and answers first.
func TestNoVoteNamesItsResourceInEnlistOrder(t *testing.T) {
	const n = 5
	for k := 0; k < n-1; k++ {
		m := newMgr()
		tr := m.Begin(0)
		errK := fmt.Errorf("no from r%d", k)
		for i := 0; i < n; i++ {
			var r Resource = nopResource{}
			switch i {
			case k:
				r = noVoter{err: errK, slow: true}
			case n - 1:
				r = noVoter{err: errors.New("no from the last")}
			}
			tr.Enlist("r"+strconv.Itoa(i), r)
		}
		err := tr.Commit()
		if !errors.Is(err, ErrAborted) || !errors.Is(err, errK) {
			t.Fatalf("k=%d: Commit = %v, want an abort for r%d's no vote", k, err, k)
		}
		if want := fmt.Sprintf("r%d voted no", k); !strings.Contains(err.Error(), want) {
			t.Fatalf("k=%d: Commit = %v, want it to say %q", k, err, want)
		}
	}
}

// TestPhaseGoroutinesEndWithTheirJobs: a thousand two-phase commits leave
// no goroutine behind and no job on the manager's channel.
func TestPhaseGoroutinesEndWithTheirJobs(t *testing.T) {
	m := NewManager("s1", vclock.NewVirtualAtZero(), nopLog{}, nil)
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		tr := m.Begin(0)
		tr.Enlist("a", nopResource{})
		tr.Enlist("b", nopResource{})
		tr.Enlist("c", nopResource{})
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	m.Drain()
	if len(m.jobs) != 0 {
		t.Fatalf("%d phase jobs left on the manager's channel", len(m.jobs))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 1000 commits, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
