package chaostest

import (
	"fmt"
	"os"
	"time"

	"wls"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/vclock"
)

// State is the harness's own bookkeeping of which faults are in force; the
// workloads consult it to decide which operations the stack can honestly
// be expected to serve (e.g. no requests are issued while a server is
// frozen, because an in-flight call to a frozen endpoint blocks the
// caller by design).
type State struct {
	Down   map[string]bool
	Frozen map[string]bool
	Fenced map[string]bool
	Parts  map[string]bool // "a|b" partitioned
	Slow   map[string]bool // latency-inflated (overload configs)
	// Bursts counts pending flash crowds; the overload workload consumes
	// them as oversized volleys.
	Bursts int
	// Restarted counts restarts per server: a restarted server is alive
	// but has lost all in-memory state, which matters to the session
	// workload's forgiveness rule.
	Restarted map[string]int
}

func newState() *State {
	return &State{
		Down:      map[string]bool{},
		Frozen:    map[string]bool{},
		Fenced:    map[string]bool{},
		Parts:     map[string]bool{},
		Slow:      map[string]bool{},
		Restarted: map[string]int{},
	}
}

// Faulted reports whether a server currently has a server-level fault.
func (st *State) Faulted(name string) bool {
	return st.Down[name] || st.Frozen[name] || st.Fenced[name]
}

// NetAmbiguous reports whether any fault that silently blackholes or
// blocks traffic (freeze, fence, partition) is in force. Workloads whose
// internal replication uses unbounded contexts skip steps while true.
func (st *State) NetAmbiguous() bool {
	return len(st.Frozen) > 0 || len(st.Fenced) > 0 || len(st.Parts) > 0
}

// Workload is one invariant-bearing exerciser of the cluster. The harness
// drives all workloads from a single goroutine: Setup once, then after
// every schedule step either OnFault (for fault steps) or Step (after
// advances), Check after each, and finally Quiesce once the cluster is
// healed and settled.
type Workload interface {
	Name() string
	Setup(h *Harness) error
	// OnFault lets a workload react to an injected fault the way the real
	// deployment would (e.g. redeploying servlets after a restart).
	OnFault(h *Harness, s Step)
	// Step performs a bounded amount of foreground work.
	Step(h *Harness)
	// Check asserts the workload's continuous invariants. Violations are
	// reported via h.Violatef.
	Check(h *Harness)
	// Settled reports whether the workload's asynchronous machinery has
	// drained; the harness keeps advancing the clock until every workload
	// settles (or a budget expires).
	Settled(h *Harness) bool
	// Quiesce asserts the end-state invariants against the healed cluster.
	Quiesce(h *Harness)
	// Close releases workload resources before cluster shutdown.
	Close()
}

// Harness runs one seeded scenario against one cluster.
type Harness struct {
	Cluster *wls.Cluster
	State   *State

	step       int
	at         time.Duration
	faults     int // fault steps applied
	violations []string
}

// Violatef records an invariant violation at the current step.
func (h *Harness) Violatef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	h.violations = append(h.violations, fmt.Sprintf("step %d (+%s): %s", h.step, h.at.Truncate(time.Millisecond), msg))
}

// Server is a convenience accessor.
func (h *Harness) Server(name string) *wls.Server { return h.Cluster.Server(name) }

// advance moves the virtual clock in small chunks, yielding briefly in
// real time after each so background goroutines (lease renewals, SAF
// drains, session ships) keep pace with the advancing clock.
func (h *Harness) advance(d time.Duration) {
	const chunk = 25 * time.Millisecond
	for d > 0 {
		step := chunk
		if d < step {
			step = d
		}
		h.Cluster.Clock().(*vclock.Virtual).Advance(step)
		//wls:wallclock real yield so background goroutines keep pace with the advancing virtual clock
		time.Sleep(time.Millisecond)
		h.at += step
		d -= step
	}
}

// apply injects or heals one fault on the cluster and mirrors it into
// h.State.
func (h *Harness) apply(s Step) {
	c := h.Cluster
	key := s.A + "|" + s.B
	if s.Kind != OpBurst {
		h.faults++
	}
	switch s.Kind {
	case OpCrash:
		c.Crash(s.A)
		h.State.Down[s.A] = true
	case OpRestart:
		if _, err := c.Restart(s.A); err != nil {
			h.Violatef("restart %s: %v", s.A, err)
		}
		delete(h.State.Down, s.A)
		h.State.Restarted[s.A]++
	case OpFreeze:
		// A frozen server keeps its state but stops processing traffic
		// and heartbeats — §3.4's split-brain scenario.
		h.Server(s.A).Member().Stop()
		c.Net().Freeze(h.Server(s.A).Addr(), true)
		h.State.Frozen[s.A] = true
	case OpThaw:
		c.Net().Freeze(h.Server(s.A).Addr(), false)
		h.Server(s.A).Member().Start()
		delete(h.State.Frozen, s.A)
	case OpFence:
		c.Net().Fence(h.Server(s.A).Addr(), true)
		h.State.Fenced[s.A] = true
	case OpUnfence:
		c.Net().Fence(h.Server(s.A).Addr(), false)
		delete(h.State.Fenced, s.A)
	case OpPartition:
		c.Net().SetPartitioned(h.Server(s.A).Addr(), h.Server(s.B).Addr(), true)
		h.State.Parts[key] = true
	case OpHeal:
		c.Net().SetPartitioned(h.Server(s.A).Addr(), h.Server(s.B).Addr(), false)
		delete(h.State.Parts, key)
	case OpSlow:
		c.Net().SetSlow(h.Server(s.A).Addr(), slowLatency)
		h.State.Slow[s.A] = true
	case OpClearSlow:
		c.Net().SetSlow(h.Server(s.A).Addr(), 0)
		delete(h.State.Slow, s.A)
	case OpBurst:
		h.State.Bursts++
	}
}

// slowLatency is the per-link inflation a slow server suffers: large
// against the default RMI hop, small against the budgets the overload
// workload grants, so slow responses arrive late but inside the horizon.
const slowLatency = 150 * time.Millisecond

// Result is the outcome of one seeded run.
type Result struct {
	Seed     int64
	Overload bool
	Schedule *Schedule
	// Timeline is the rendered schedule — byte-identical for identical
	// (seed, Config).
	Timeline string
	// Faults counts the fault and heal steps the harness applied.
	Faults int
	// Violations are the invariant failures, in detection order.
	Violations []string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Replay returns the one-command reproduction for this run.
func (r *Result) Replay() string { return ReplayCommand(r.Seed, r.Overload) }

// ReplayCommand renders the minimal command reproducing a seed's run.
// Overload runs need the matching config, carried by a second env marker.
func ReplayCommand(seed int64, overload bool) string {
	env := fmt.Sprintf("WLS_CHAOS_SEED=%d", seed)
	if overload {
		env = "WLS_CHAOS_OVERLOAD=1 " + env
	}
	return env + " go test -run TestChaosReplay ./internal/chaostest"
}

// Run executes one seeded scenario: boot a cluster with an admin server
// and per-server middle-tier stores, install the workloads, drive the
// generated schedule, settle, and check end-state invariants.
func Run(seed int64, cfg Config) (*Result, error) {
	sched := Generate(seed, cfg)

	dir, err := os.MkdirTemp("", "wls-chaos-*")
	if err != nil {
		return nil, fmt.Errorf("chaos: tempdir: %w", err)
	}
	defer os.RemoveAll(dir)

	opts := wls.Options{
		Servers:   numServers,
		WithAdmin: true,
		DataDir:   dir,
		Sessions:  servlet.SessionsReplicated,
		Seed:      seed,
	}
	if cfg.Overload {
		// A deliberately small Deny queue so flash crowds actually shed, and
		// the full client-side resilience stack so the invariants exercise
		// budgets, retries and breakers together.
		opts.Admission = &rmi.QueueConfig{Workers: 2, QueueLen: 8}
		opts.Resilience = true
	}
	c, err := wls.New(opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: boot: %w", err)
	}
	defer c.Stop()

	h := &Harness{Cluster: c, State: newState()}
	workloads := []Workload{
		newSingletonWorkload(),
		newTxWorkload(seed),
		newJMSWorkload(seed),
		newSessionWorkload(),
		newRingWorkload(),
	}
	if cfg.Overload {
		workloads = append(workloads, newOverloadWorkload(seed))
	}
	for _, w := range workloads {
		if err := w.Setup(h); err != nil {
			return nil, fmt.Errorf("chaos: setup %s: %w", w.Name(), err)
		}
	}
	defer func() {
		for _, w := range workloads {
			w.Close()
		}
	}()

	for i, st := range sched.Steps {
		h.step = i
		if st.Kind == OpAdvance {
			h.advance(st.D)
			if i == len(sched.Steps)-1 {
				continue // quiescence advance: no new foreground work
			}
			for _, w := range workloads {
				w.Step(h)
			}
		} else {
			h.apply(st)
			for _, w := range workloads {
				w.OnFault(h, st)
			}
		}
		for _, w := range workloads {
			w.Check(h)
		}
	}

	// The schedule's tail healed every fault; keep settling until every
	// workload's asynchronous machinery drains (SAF backlogs, lease
	// re-acquisition), bounded so a liveness bug cannot hang the sweep.
	h.step = len(sched.Steps)
	for i := 0; i < 400; i++ {
		settled := true
		for _, w := range workloads {
			if !w.Settled(h) {
				settled = false
			}
		}
		if settled {
			break
		}
		h.advance(50 * time.Millisecond)
	}
	for _, w := range workloads {
		w.Quiesce(h)
	}

	return &Result{
		Seed:       seed,
		Overload:   cfg.Overload,
		Schedule:   sched,
		Timeline:   sched.String(),
		Faults:     h.faults,
		Violations: h.violations,
	}, nil
}
