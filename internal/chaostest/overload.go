package chaostest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wls/internal/rmi"
)

// ---------------------------------------------------------------------------
// Overload protection: every request terminal, no late deliveries, breakers
// re-close after healing.
//
// The workload drives an admitted (non-System) echo service through the
// full protection stack — request budgets, server-side admission, retry
// budget, backoff, per-server breakers — from the admin server, which is
// never faulted, so the caller's resilience state survives the whole run.
// Flash bursts (OpBurst) issue volleys far above the deliberately small
// Deny queue; slow servers (OpSlow) answer late rather than never.

const (
	echoService = "chaos.echo"
	// echoWork is the simulated execute-thread time per request.
	echoWork = 4 * time.Millisecond
	// reqBudget is each request's end-to-end time budget. It comfortably
	// covers a slow hop (2×slowLatency) plus queueing, so budget expiry
	// under faults means real overload, not an impossible deadline.
	reqBudget = 2 * time.Second
	// lateSlack absorbs the gap between the stub returning and the
	// workload goroutine reading the clock (the harness advances in 25ms
	// chunks): a delivery is only a violation when it beats the deadline
	// by more than this, which a missing client-side gate does by seconds.
	lateSlack = 250 * time.Millisecond
)

type overloadWorkload struct {
	seed int64
	res  *rmi.Resilience
	stub *rmi.Stub

	mu        sync.Mutex
	launched  int
	inflight  int
	succ      int
	appErr    int
	busy      int
	expired   int
	transport int
	late      []string
	probes    map[string]int // directed breaker probes per server
	seq       int
}

func newOverloadWorkload(seed int64) *overloadWorkload {
	return &overloadWorkload{seed: seed, probes: map[string]int{}}
}

func (w *overloadWorkload) Name() string { return "overload" }

func (w *overloadWorkload) Setup(h *Harness) error {
	for _, s := range h.Cluster.Servers {
		w.install(h, s.Name)
	}
	// The caller lives on the admin server: it is never faulted, so its
	// retry budget and breakers observe the whole run.
	w.res = h.Cluster.Admin.Resilience()
	w.stub = h.Cluster.Admin.Stub(echoService)
	if w.res == nil {
		return fmt.Errorf("overload: cluster booted without Options.Resilience")
	}
	return nil
}

// install registers the admitted echo service on the server's current
// registry. No System flag: this is application work, subject to admission.
func (w *overloadWorkload) install(h *Harness, name string) {
	clk := h.Cluster.Clock()
	h.Server(name).Registry().Register(&rmi.Service{
		Name: echoService,
		Methods: map[string]rmi.MethodSpec{
			"echo": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				clk.Sleep(echoWork)
				if string(c.Args) == "boom" {
					return nil, &rmi.AppError{Msg: "boom"}
				}
				return c.Args, nil
			}},
		},
	})
}

func (w *overloadWorkload) OnFault(h *Harness, s Step) {
	if s.Kind == OpRestart {
		w.install(h, s.A)
	}
}

// launch issues one budgeted request on a background goroutine (the
// harness drives workloads from a single goroutine, and a budgeted call
// sleeps on the virtual clock the harness itself advances) and classifies
// the terminal outcome.
func (w *overloadWorkload) launch(h *Harness, stub *rmi.Stub, payload []byte) {
	clk := h.Cluster.Clock()
	ctx := rmi.WithBudget(context.Background(), clk, reqBudget)
	deadline := clk.Now().Add(reqBudget)
	w.mu.Lock()
	w.launched++
	w.inflight++
	w.mu.Unlock()
	go func() {
		_, err := stub.Invoke(ctx, "echo", payload)
		now := clk.Now()
		w.mu.Lock()
		defer w.mu.Unlock()
		w.inflight--
		switch {
		case err == nil:
			w.succ++
			if now.After(deadline.Add(lateSlack)) {
				w.late = append(w.late, fmt.Sprintf("success delivered %v past its deadline", now.Sub(deadline)))
			}
		case rmi.IsAppError(err):
			w.appErr++
			if now.After(deadline.Add(lateSlack)) {
				w.late = append(w.late, fmt.Sprintf("app error delivered %v past its deadline", now.Sub(deadline)))
			}
		case errors.Is(err, rmi.ErrBudgetExceeded):
			w.expired++
		case errors.As(err, new(*rmi.BusyError)):
			w.busy++
		default:
			w.transport++
		}
	}()
}

func (w *overloadWorkload) Step(h *Harness) {
	volley := 2
	for h.State.Bursts > 0 {
		h.State.Bursts--
		volley += 16
	}
	for i := 0; i < volley; i++ {
		w.seq++
		payload := []byte(fmt.Sprintf("req-%d-%05d", w.seed, w.seq))
		if w.seq%5 == 0 {
			payload = []byte("boom") // application errors are terminal too
		}
		w.launch(h, w.stub, payload)
	}
}

func (w *overloadWorkload) Check(*Harness) {}

// Settled reports drained in-flight work AND re-closed breakers. An open
// breaker on a healthy server never re-closes by itself — something has to
// probe it — so while any breaker is open with nothing in flight, Settled
// issues one directed probe (the health-check role a real deployment's
// monitoring plays) and keeps the harness advancing.
func (w *overloadWorkload) Settled(h *Harness) bool {
	w.mu.Lock()
	inflight := w.inflight
	w.mu.Unlock()
	if inflight > 0 {
		return false
	}
	settled := true
	for _, s := range h.Cluster.Servers {
		if w.res.State(s.Name) == rmi.BreakerClosed {
			continue
		}
		settled = false
		w.mu.Lock()
		budget := w.probes[s.Name] < 50
		if budget {
			w.probes[s.Name]++
		}
		w.mu.Unlock()
		if budget {
			probe := rmi.NewStub(echoService, h.Cluster.Admin.Node(),
				rmi.NamedStaticView(s.Name, s.Addr()), rmi.WithResilience(w.res))
			w.launch(h, probe, []byte("probe"))
		}
	}
	return settled
}

func (w *overloadWorkload) Quiesce(h *Harness) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Invariant 1: every request reaches a terminal outcome.
	if w.inflight != 0 {
		h.Violatef("overload: %d of %d requests never reached a terminal outcome", w.inflight, w.launched)
	}
	if got := w.succ + w.appErr + w.busy + w.expired + w.transport + w.inflight; got != w.launched {
		h.Violatef("overload: outcome ledger %d != %d launched", got, w.launched)
	}
	if w.succ == 0 {
		h.Violatef("overload: no request ever succeeded (%d launched)", w.launched)
	}
	// Invariant 2: no response is delivered after its deadline — the
	// client-side gate discards late responses as budget-exceeded.
	for _, l := range w.late {
		h.Violatef("overload: %s", l)
	}
	// Invariant 3: with every fault healed and traffic flowing again, every
	// breaker re-closes.
	for _, s := range h.Cluster.Servers {
		if st := w.res.State(s.Name); st != rmi.BreakerClosed {
			h.Violatef("overload: breaker for %s still %v after quiescence", s.Name, st)
		}
	}
}

func (w *overloadWorkload) Close() {}
