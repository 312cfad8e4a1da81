package rmi

import (
	"context"
	"sync"
	"testing"
	"time"

	"wls/internal/metrics"
	"wls/internal/trace"
	"wls/internal/vclock"
)

// White-box regression tests for the pooled server-side Call. Pooling
// turned two dispatchQueued paths into use-after-release hazards:
//
//  1. a request abandoned at its deadline while still queued — the
//     transport goroutine recycles the Call, so the queued closure must
//     go inert instead of running the handler against a recycled object;
//  2. a Submit refusal — the closure will never run, so dispatchQueued
//     itself must hand the Call back or the pool leaks.
//
// Both are pinned against the release discipline itself: the test holds
// the *Call pointer and checks it was zeroed (releaseCall's reset) at the
// moment the contract says ownership returned to the pool. Reverting the
// claim check or dropping either releaseCall call fails these tests.

// manualQueue is an Admission that parks submitted tasks for the test to
// run (or not) at a chosen moment, like a backed-up execute queue.
type manualQueue struct {
	mu     sync.Mutex
	tasks  []func()
	refuse error
}

func (q *manualQueue) Submit(f func()) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.refuse != nil {
		return q.refuse
	}
	q.tasks = append(q.tasks, f)
	return nil
}

func (q *manualQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

func (q *manualQueue) run(i int) {
	q.mu.Lock()
	f := q.tasks[i]
	q.mu.Unlock()
	f()
}

// callIsReset reports whether releaseCall's zeroing ran on c.
func callIsReset(c *Call) bool {
	return c.Service == "" && c.Method == "" && c.From == "" &&
		c.TxID == "" && c.ConvID == "" && c.Args == nil
}

func newDispatchRegistry() *Registry {
	reg := metrics.NewRegistry()
	return &Registry{
		reg:      reg,
		requests: reg.Counter("rmi.requests"),
		busy:     reg.Counter("rmi.busy"),
		services: make(map[string]*Service),
	}
}

func TestQueuedCallAbandonedAtDeadlineIsNotTouchedByWorker(t *testing.T) {
	r := newDispatchRegistry()
	q := &manualQueue{}

	ran := false
	m := MethodSpec{name: "m", Handler: func(ctx context.Context, c *Call) ([]byte, error) {
		ran = true
		return nil, nil
	}}

	call := callPool.Get().(*Call)
	call.Service = "S"
	call.Method = "m"
	call.Args = []byte("payload")

	budget := Budget{clock: vclock.System, deadline: vclock.System.Now().Add(10 * time.Millisecond)}
	fr := r.dispatchQueued(context.Background(), q, 7, call, trace.SpanContext{}, m, budget)
	if fr == nil {
		t.Fatal("no frame for abandoned request")
	}
	if got := r.busy.Value(); got != 1 {
		t.Fatalf("busy = %d, want 1 (deadline expired in queue)", got)
	}
	// Ownership went back to the pool when BUSY was sent: the object the
	// test still points at must have been reset by releaseCall.
	if !callIsReset(call) {
		t.Fatalf("abandoned Call not released: %+v", *call)
	}

	// The worker finally reaches the parked task — the very window where a
	// recycled Call would be observed by whatever request holds it now.
	if q.len() != 1 {
		t.Fatalf("queue holds %d tasks, want 1", q.len())
	}
	q.run(0)
	if ran {
		t.Fatal("handler ran for a request that was abandoned and recycled")
	}
}

func TestRefusedSubmitReleasesPooledCall(t *testing.T) {
	r := newDispatchRegistry()
	q := &manualQueue{refuse: context.DeadlineExceeded}

	call := callPool.Get().(*Call)
	call.Service = "S"
	call.Method = "m"
	call.Args = []byte("payload")

	fr := r.dispatchQueued(context.Background(), q, 9, call, trace.SpanContext{},
		MethodSpec{name: "m"}, Budget{})
	if fr == nil {
		t.Fatal("no frame for refused request")
	}
	if got := r.busy.Value(); got != 1 {
		t.Fatalf("busy = %d, want 1 (admission refused)", got)
	}
	// Submit's closure will never run, so dispatchQueued owned the release.
	if !callIsReset(call) {
		t.Fatalf("refused Call not released: %+v", *call)
	}
}

// TestClaimedCallRunsExactlyOnce covers the other side of the race: the
// worker wins the claim just before the deadline, so the handler's real
// outcome is returned and the Call is released by the worker, not twice.
func TestClaimedCallRunsExactlyOnce(t *testing.T) {
	r := newDispatchRegistry()
	q := &manualQueue{}

	runs := 0
	m := MethodSpec{name: "m", Handler: func(ctx context.Context, c *Call) ([]byte, error) {
		runs++
		if c.Service != "S" || string(c.Args) != "payload" {
			t.Errorf("handler saw corrupted Call: %+v", *c)
		}
		return []byte("ok"), nil
	}}

	call := callPool.Get().(*Call)
	call.Service = "S"
	call.Method = "m"
	call.Args = []byte("payload")

	done := make(chan struct{})
	go func() {
		defer close(done)
		budget := Budget{clock: vclock.System, deadline: vclock.System.Now().Add(5 * time.Second)}
		fr := r.dispatchQueued(context.Background(), q, 11, call, trace.SpanContext{}, m, budget)
		if fr == nil {
			t.Error("no frame for claimed request")
		}
	}()
	deadline := time.Now().Add(time.Second)
	for {
		if q.len() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("task never submitted")
		}
		time.Sleep(time.Millisecond)
	}
	q.run(0)
	<-done
	if runs != 1 {
		t.Fatalf("handler ran %d times, want 1", runs)
	}
	if !callIsReset(call) {
		t.Fatalf("executed Call not released: %+v", *call)
	}
	if got := r.busy.Value(); got != 0 {
		t.Fatalf("busy = %d, want 0", got)
	}
}
