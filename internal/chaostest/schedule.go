// Package chaostest is a deterministic fault-injection harness for the HA
// stack. A seeded scenario generator composes netsim faults — crash,
// restart, freeze/thaw, fence, pairwise partition — over a configurable
// horizon while a workload exercises the cluster on the virtual clock, and
// cross-cutting invariants are checked after every step and again at
// quiescence:
//
//   - at most one live singleton owner per service, with fencing-epoch
//     monotonicity (§3.4)
//   - no committed transaction lost or doubly applied after tx.Recover
//   - JMS exactly-once delivery under store-and-forward (§4)
//   - replicated-session survival of any single failure (§3.2)
//
// With Config.Overload, slow-server and flash-burst faults join the
// schedule and three overload invariants join the checks (§2.3 + §2.1):
//
//   - every budgeted request reaches a terminal outcome (reply, BUSY,
//     budget exhaustion, or application error) — nothing hangs
//   - no response is delivered after its request's deadline
//   - once every fault is healed and traffic flows again, every open
//     circuit breaker re-closes
//
// Every run is reproducible from (seed, schedule): the schedule is a pure
// function of the seed and the Config, so the rendered fault timeline is
// byte-identical across runs, and a failing sweep prints the one-command
// replay for its seed.
package chaostest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// A scenario faults numServers managed servers (an admin server hosting the
// lease manager is always added and never faulted), at most maxFaults at
// once. Rounds advance the virtual clock by multiples of tick. The healing
// tail advances at least quiesce after every fault is undone, so leases
// re-settle, SAF backlogs drain and recovery runs: 5s covers the 1s lease
// TTL and the 16x SAF backoff with margin.
const (
	numServers = 3
	maxFaults  = 2
	tick       = 50 * time.Millisecond
	quiesce    = 5 * time.Second
)

// Config bounds a generated scenario. The zero value selects the
// small-budget defaults used by the in-tree sweep.
type Config struct {
	// Steps is the number of fault-decision rounds. Default 24.
	Steps int
	// Overload adds the overload-protection faults to the generator's
	// repertoire (slow servers, flash bursts), boots the cluster with
	// admission control and client resilience, and installs the overload
	// workload. Off by default so the schedules of pinned regression seeds
	// stay byte-identical.
	Overload bool
}

// OpKind is one scenario operation.
type OpKind int

// Scenario operations. OpAdvance moves the virtual clock; everything else
// injects or heals a fabric fault.
const (
	OpAdvance OpKind = iota
	OpCrash
	OpRestart
	OpFreeze
	OpThaw
	OpFence
	OpUnfence
	OpPartition
	OpHeal
	// OpSlow inflates every link touching a server (a slow server that
	// still answers, late); OpClearSlow heals it. Overload configs only.
	OpSlow
	OpClearSlow
	// OpBurst is a momentary flash crowd: the overload workload issues a
	// volley far above steady state. It has no heal. Overload configs only.
	OpBurst
)

func (k OpKind) String() string {
	switch k {
	case OpAdvance:
		return "advance"
	case OpCrash:
		return "crash"
	case OpRestart:
		return "restart"
	case OpFreeze:
		return "freeze"
	case OpThaw:
		return "thaw"
	case OpFence:
		return "fence"
	case OpUnfence:
		return "unfence"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpSlow:
		return "slow"
	case OpClearSlow:
		return "clearslow"
	case OpBurst:
		return "burst"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Step is one scenario operation with its operands.
type Step struct {
	Kind OpKind
	// A is the target server (and B the peer for pairwise ops).
	A, B string
	// D is the advance duration for OpAdvance.
	D time.Duration
}

func (s Step) String() string {
	switch s.Kind {
	case OpAdvance:
		return fmt.Sprintf("advance %v", s.D)
	case OpPartition, OpHeal:
		return fmt.Sprintf("%s %s %s", s.Kind, s.A, s.B)
	case OpBurst:
		return "burst"
	default:
		return fmt.Sprintf("%s %s", s.Kind, s.A)
	}
}

// Schedule is a generated fault timeline. It is a pure function of
// (Seed, Config): rendering it yields byte-identical output across runs,
// which is the reproducibility contract chaos tests pin.
type Schedule struct {
	Seed  int64
	Steps []Step
}

// String renders the timeline with cumulative virtual-time offsets.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d steps=%d\n", s.Seed, len(s.Steps))
	var at time.Duration
	for i, st := range s.Steps {
		if st.Kind == OpAdvance {
			at += st.D
		}
		fmt.Fprintf(&b, "%3d +%8s %s\n", i, at.Truncate(time.Millisecond), st)
	}
	return b.String()
}

// fault is one outstanding injected fault during generation.
type fault struct {
	kind OpKind // OpCrash, OpFreeze, OpFence, OpPartition or OpSlow
	a, b string
}

// heal returns the step that undoes f.
func (f fault) heal() Step {
	switch f.kind {
	case OpCrash:
		return Step{Kind: OpRestart, A: f.a}
	case OpFreeze:
		return Step{Kind: OpThaw, A: f.a}
	case OpFence:
		return Step{Kind: OpUnfence, A: f.a}
	case OpPartition:
		return Step{Kind: OpHeal, A: f.a, B: f.b}
	default:
		return Step{Kind: OpClearSlow, A: f.a}
	}
}

// Generate derives the fault schedule for a seed. The generator keeps the
// scenario honest about what the stack promises to survive: the admin
// server (lease manager) is never faulted, at least one managed server
// stays entirely un-faulted, at most maxFaults faults are outstanding at
// once, and the schedule ends with a healing tail plus a quiescence
// advance so end-state invariants are checked against a settled cluster.
func Generate(seed int64, cfg Config) *Schedule {
	if cfg.Steps <= 0 {
		cfg.Steps = 24
	}
	rng := rand.New(rand.NewSource(seed))
	servers := make([]string, numServers)
	for i := range servers {
		servers[i] = fmt.Sprintf("server-%d", i+1)
	}

	var (
		steps   []Step
		active  []fault
		srvBusy = map[string]bool{} // server-level fault outstanding
		pairs   = map[string]bool{} // "a|b" partitioned
	)
	pairKey := func(a, b string) string { return a + "|" + b }

	removeActive := func(i int) fault {
		f := active[i]
		active = append(active[:i], active[i+1:]...)
		switch f.kind {
		case OpCrash, OpFreeze, OpFence, OpSlow:
			delete(srvBusy, f.a)
		case OpPartition:
			delete(pairs, pairKey(f.a, f.b))
		}
		return f
	}

	// freeServers returns servers with no outstanding server-level fault.
	freeServers := func() []string {
		var out []string
		for _, s := range servers {
			if !srvBusy[s] {
				out = append(out, s)
			}
		}
		return out
	}

	for round := 0; round < cfg.Steps; round++ {
		steps = append(steps, Step{Kind: OpAdvance, D: tick * time.Duration(1+rng.Intn(3))})

		// Flash crowds are momentary (no heal, no fault slot), so they are
		// drawn independently of the fault machinery. Gated on Overload so
		// default-config schedules consume the RNG identically to before.
		if cfg.Overload && rng.Float64() < 0.15 {
			steps = append(steps, Step{Kind: OpBurst})
		}

		if len(active) >= maxFaults {
			f := removeActive(rng.Intn(len(active)))
			steps = append(steps, f.heal())
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.55:
			// Inject. Build the feasible action set deterministically.
			type action struct {
				weight int
				make   func() (Step, fault, bool)
			}
			free := freeServers()
			serverOp := func(kind OpKind) func() (Step, fault, bool) {
				return func() (Step, fault, bool) {
					// Keep at least one managed server fully healthy.
					if len(free) < 2 {
						return Step{}, fault{}, false
					}
					t := free[rng.Intn(len(free))]
					srvBusy[t] = true
					return Step{Kind: kind, A: t}, fault{kind: kind, a: t}, true
				}
			}
			partition := func() (Step, fault, bool) {
				var cand [][2]string
				for i := 0; i < len(servers); i++ {
					for j := i + 1; j < len(servers); j++ {
						if !pairs[pairKey(servers[i], servers[j])] {
							cand = append(cand, [2]string{servers[i], servers[j]})
						}
					}
				}
				if len(cand) == 0 {
					return Step{}, fault{}, false
				}
				p := cand[rng.Intn(len(cand))]
				pairs[pairKey(p[0], p[1])] = true
				return Step{Kind: OpPartition, A: p[0], B: p[1]}, fault{kind: OpPartition, a: p[0], b: p[1]}, true
			}
			actions := []action{
				{3, serverOp(OpCrash)},
				{2, serverOp(OpFreeze)},
				{2, serverOp(OpFence)},
				{2, partition},
			}
			if cfg.Overload {
				actions = append(actions, action{2, serverOp(OpSlow)})
			}
			total := 0
			for _, a := range actions {
				total += a.weight
			}
			pick := rng.Intn(total)
			for _, a := range actions {
				if pick < a.weight {
					if st, f, ok := a.make(); ok {
						steps = append(steps, st)
						active = append(active, f)
					}
					break
				}
				pick -= a.weight
			}
		case r < 0.80 && len(active) > 0:
			f := removeActive(rng.Intn(len(active)))
			steps = append(steps, f.heal())
		}
	}

	// Healing tail: undo everything still outstanding, oldest first, then
	// settle long enough for leases, recovery and SAF backlogs.
	for len(active) > 0 {
		f := removeActive(0)
		steps = append(steps, Step{Kind: OpAdvance, D: tick})
		steps = append(steps, f.heal())
	}
	steps = append(steps, Step{Kind: OpAdvance, D: quiesce})

	return &Schedule{Seed: seed, Steps: steps}
}
