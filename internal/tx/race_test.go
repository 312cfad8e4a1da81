package tx

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/metrics"
	"wls/internal/vclock"
)

// recordingResource tracks terminal outcomes per transaction for
// consistency assertions under contention.
type recordingResource struct {
	mu        sync.Mutex
	committed map[string]bool
	rolled    map[string]bool
}

func newRecordingResource() *recordingResource {
	return &recordingResource{committed: map[string]bool{}, rolled: map[string]bool{}}
}

func (r *recordingResource) Prepare(string) error { return nil }

func (r *recordingResource) Commit(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.committed[id] = true
	return nil
}

func (r *recordingResource) Rollback(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rolled[id] = true
	return nil
}

func (r *recordingResource) isCommitted(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed[id]
}

// TestTimeoutVsCommitRace drives Begin/Commit against a concurrently
// advancing clock so timeout rollbacks interleave with commits. Under
// -race it pins the Tx.timer synchronization (assignment in Begin and the
// reads in Commit/Rollback must agree on t.mu); semantically, whichever
// path wins, the reported outcome must match what happened at the
// resource.
func TestTimeoutVsCommitRace(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m := NewManager("race", clk, nil, nil)

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			clk.Advance(time.Millisecond)
		}
	}()
	defer func() {
		done.Store(true)
		wg.Wait()
	}()

	// Deterministic window: arm a deadline, then wait until the advancing
	// goroutine's rollback callback — which reads Tx.timer — has finished
	// the transaction. Receiving from done releases nothing, so this
	// goroutine performs no synchronizing operation after Begin's write of
	// the same field that the callback could acquire. Under -race this is
	// exactly the Begin-assignment vs callback-read pair the fix put under
	// t.mu.
	limit := time.After(5 * time.Second)
	for i := 0; i < 10; i++ {
		tr := m.Begin(time.Millisecond)
		select {
		case <-tr.done:
		case <-limit:
			t.Fatalf("tx %s: its 1ms deadline had not rolled it back after 5s", tr.ID())
		}
		if err := tr.Commit(); !errors.Is(err, ErrTimeout) {
			t.Fatalf("expired tx %s: Commit = %v, want ErrTimeout", tr.ID(), err)
		}
	}

	r := newRecordingResource()
	for i := 0; i < 300; i++ {
		tr := m.Begin(time.Millisecond)
		if err := tr.Enlist("r", r); err != nil {
			continue // timed out before we got going; fine
		}
		id := tr.ID()
		switch err := tr.Commit(); {
		case err == nil:
			if !r.isCommitted(id) {
				t.Fatalf("tx %s: Commit reported success but the resource never committed", id)
			}
		case errors.Is(err, ErrTimeout) || errors.Is(err, ErrAborted):
			if r.isCommitted(id) {
				t.Fatalf("tx %s: Commit reported %v but the resource committed", id, err)
			}
		default:
			t.Fatalf("tx %s: unexpected Commit outcome %v", id, err)
		}
	}
}

// blockingResource parks Commit until released, letting a test hold a
// transaction in StatePreparing while another goroutine races Commit.
type blockingResource struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingResource) Prepare(string) error { return nil }

func (b *blockingResource) Commit(string) error {
	close(b.entered)
	<-b.release
	return nil
}

func (b *blockingResource) Rollback(string) error { return nil }

// TestConcurrentCommitReportsOutcome pins the fix for the second-caller
// lie: a Commit that loses the Active→Preparing race must wait for and
// report the actual outcome — here a successful commit — rather than
// guessing ErrAborted.
func TestConcurrentCommitReportsOutcome(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m := NewManager("race", clk, nil, nil)
	b := &blockingResource{entered: make(chan struct{}), release: make(chan struct{})}

	tr := m.Begin(0)
	if err := tr.Enlist("b", b); err != nil {
		t.Fatal(err)
	}

	firstErr := make(chan error, 1)
	go func() { firstErr <- tr.Commit() }()
	<-b.entered // first Commit is now mid-phase-2, state is Preparing

	secondErr := make(chan error, 1)
	go func() { secondErr <- tr.Commit() }()
	// Let the second caller reach Commit while the state is still
	// Preparing; only then unblock phase 2.
	time.Sleep(20 * time.Millisecond)

	close(b.release)
	if err := <-firstErr; err != nil {
		t.Fatalf("first Commit: %v", err)
	}
	if err := <-secondErr; err != nil {
		t.Fatalf("second Commit must report the real outcome (commit), got %v", err)
	}
}

// TestConcurrentCommitReportsTimeout is the abort-side twin: a Commit
// racing the deadline rollback must report ErrTimeout once the rollback
// wins, and the resource must not have committed.
func TestConcurrentCommitReportsTimeout(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	m := NewManager("race", clk, nil, nil)
	r := newRecordingResource()

	tr := m.Begin(50 * time.Millisecond)
	if err := tr.Enlist("r", r); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond) // deadline fires, rolls back
	err := tr.Commit()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Commit after timeout = %v, want ErrTimeout", err)
	}
	if r.isCommitted(tr.ID()) {
		t.Fatalf("timed-out tx committed at the resource")
	}
}

// TestZeroResourceCommitCounters pins the metrics split: a commit with no
// enlisted resources is not a one-phase commit and must be counted apart,
// keeping the 1pc/2pc ratio an honest measure of co-location.
func TestZeroResourceCommitCounters(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	reg := metrics.NewRegistry()
	m := NewManager("s", clk, nil, reg)

	if err := m.Begin(0).Commit(); err != nil {
		t.Fatalf("zero-resource commit: %v", err)
	}
	if got := reg.Counter("tx.0pc").Value(); got != 1 {
		t.Fatalf("tx.0pc = %d, want 1", got)
	}
	if got := reg.Counter("tx.1pc").Value(); got != 0 {
		t.Fatalf("tx.1pc = %d, want 0", got)
	}
	if got := reg.Counter("tx.committed").Value(); got != 1 {
		t.Fatalf("tx.committed = %d, want 1", got)
	}

	// A real single-resource commit still lands in tx.1pc.
	r := newRecordingResource()
	tr := m.Begin(0)
	if err := tr.Enlist("r", r); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tx.1pc").Value(); got != 1 {
		t.Fatalf("tx.1pc = %d, want 1", got)
	}
	if got := reg.Counter("tx.0pc").Value(); got != 1 {
		t.Fatalf("tx.0pc = %d, want 1 (unchanged)", got)
	}
}
