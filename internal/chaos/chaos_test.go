package chaos

import (
	"context"
	"errors"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"wls"
	"wls/internal/netsim"
	"wls/internal/wire"
)

// TestScheduleDeterministic pins the reproducibility contract: the
// schedule — and therefore the rendered fault timeline — is a pure
// function of (seed, Config).
func TestScheduleDeterministic(t *testing.T) {
	for _, cfg := range []Config{{}, {Overload: true}} {
		for seed := int64(1); seed <= 100; seed++ {
			a := Generate(seed, cfg).String()
			b := Generate(seed, cfg).String()
			if a != b {
				t.Fatalf("seed %d (overload=%v): schedules differ:\n%s\n---\n%s", seed, cfg.Overload, a, b)
			}
		}
		if Generate(1, cfg).String() == Generate(2, cfg).String() {
			t.Fatalf("different seeds produced identical schedules (overload=%v)", cfg.Overload)
		}
	}
	// The overload repertoire must actually be drawn on at least sometimes.
	sawOverloadOp := false
	for seed := int64(1); seed <= 20 && !sawOverloadOp; seed++ {
		for _, st := range Generate(seed, Config{Overload: true}).Steps {
			if st.Kind == OpSlow || st.Kind == OpBurst {
				sawOverloadOp = true
				break
			}
		}
	}
	if !sawOverloadOp {
		t.Fatalf("overload schedules never used OpSlow/OpBurst in 20 seeds")
	}
}

// TestScheduleOverloadGatingStable pins that turning the overload
// repertoire OFF leaves schedules byte-identical to the pre-overload
// generator: the regression seeds (7, 11) and every other default-config
// timeline must not shift when the Overload flag is merely absent.
func TestScheduleOverloadGatingStable(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		def := Generate(seed, Config{})
		for _, st := range def.Steps {
			if st.Kind == OpSlow || st.Kind == OpClearSlow || st.Kind == OpBurst {
				t.Fatalf("seed %d: default config emitted overload op %s", seed, st)
			}
		}
	}
}

// TestScheduleHealsEverything checks the generator's safety contract:
// every injected fault is healed by the end of every schedule, the admin
// server is never faulted, and fault concurrency stays within MaxFaults.
func TestScheduleHealsEverything(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		cfg := Config{Overload: seed%2 == 0}.withDefaults()
		sched := Generate(seed, cfg)
		open := map[string]int{}
		outstanding := 0
		note := func(key string, delta int) {
			open[key] += delta
			outstanding += delta
			if open[key] < 0 || open[key] > 1 {
				t.Fatalf("seed %d: fault %q count %d", seed, key, open[key])
			}
			if outstanding > cfg.MaxFaults {
				t.Fatalf("seed %d: %d concurrent faults (max %d)", seed, outstanding, cfg.MaxFaults)
			}
		}
		for _, st := range sched.Steps {
			if st.A == "admin" || st.B == "admin" {
				t.Fatalf("seed %d: schedule faults the admin server: %s", seed, st)
			}
			switch st.Kind {
			case OpCrash, OpFreeze, OpFence:
				note(st.Kind.String()+st.A, +1)
			case OpRestart:
				note(OpCrash.String()+st.A, -1)
			case OpThaw:
				note(OpFreeze.String()+st.A, -1)
			case OpUnfence:
				note(OpFence.String()+st.A, -1)
			case OpPartition:
				note("part"+st.A+st.B, +1)
			case OpHeal:
				note("part"+st.A+st.B, -1)
			case OpSlow:
				note("slow"+st.A, +1)
			case OpClearSlow:
				note("slow"+st.A, -1)
			}
		}
		if outstanding != 0 {
			t.Fatalf("seed %d: %d faults left unhealed at end of schedule", seed, outstanding)
		}
	}
}

// TestChaosSweepSmall is the in-tree sweep: a handful of seeds at the
// default budget, run as part of go test ./... so every change to the HA
// stack faces the fault generator. A failing seed prints its replay
// command.
func TestChaosSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	res, err := Sweep(1, 3, Config{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	t.Logf("\n%s", res.Report())
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("%d seed(s) violated invariants:\n%s", len(fails), res.Report())
	}
}

// TestChaosRegressionSeeds pins the seeds whose scenarios drive the
// lifecycle paths behind the lease-manager stop race and the transaction
// timeout/commit races: schedules heavy in crash/restart cycles (lease
// sweeps racing stops, coordinator timeouts racing commits). They must
// stay green.
func TestChaosRegressionSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos regression seeds skipped in -short mode")
	}
	for _, seed := range []int64{7, 11} {
		r, err := Run(seed, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Fatalf("seed %d regressed — replay with:\n  %s\nviolations:\n  %s\ntimeline:\n%s",
				seed, r.Replay(), r.Violations, r.Timeline)
		}
	}
}

// TestChaosReplay reproduces a single failing seed from a sweep:
//
//	WLS_CHAOS_SEED=<seed> go test -run TestChaosReplay ./internal/chaos
func TestChaosReplay(t *testing.T) {
	env := os.Getenv("WLS_CHAOS_SEED")
	if env == "" {
		t.Skip("set WLS_CHAOS_SEED=<seed> to replay a failing chaos run")
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad WLS_CHAOS_SEED %q: %v", env, err)
	}
	r, err := Run(seed, Config{Overload: os.Getenv("WLS_CHAOS_OVERLOAD") != ""})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d: %d faults\ntimeline:\n%s", seed, r.Faults, r.Timeline)
	if r.Failed() {
		t.Fatalf("seed %d violations:\n  %v", seed, r.Violations)
	}
}

// TestChaosOverloadSweep drives the overload-protection stack through the
// fault generator: flash bursts against Deny admission, slow servers
// against budgets and breakers. Three invariants ride on it — every
// request reaches a terminal outcome, no response is delivered past its
// deadline, and breakers re-close once the cluster heals.
func TestChaosOverloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos overload sweep skipped in -short mode")
	}
	res, err := Sweep(1, 3, Config{Overload: true})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	t.Logf("\n%s", res.Report())
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("%d seed(s) violated overload invariants:\n%s", len(fails), res.Report())
	}
}

// TestChaosExtended is the extended-budget sweep behind make chaos:
//
//	WLS_CHAOS_SEEDS=32 go test -run TestChaosExtended -v ./internal/chaos
func TestChaosExtended(t *testing.T) {
	env := os.Getenv("WLS_CHAOS_SEEDS")
	if env == "" {
		t.Skip("set WLS_CHAOS_SEEDS=<n> (e.g. via make chaos) for the extended sweep")
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		t.Fatalf("bad WLS_CHAOS_SEEDS %q", env)
	}
	cfg := Config{Steps: 40}
	res, err := Sweep(1, n, cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	t.Logf("\n%s", res.Report())
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("%d seed(s) violated invariants:\n%s", len(fails), res.Report())
	}
}

// TestEveryChaosFaultActs holds each fault kind the generator emits to an
// effect the fabric shows: applied through the harness to a fresh cluster,
// it must change what a call between the servers it names gets back, and
// its heal must restore the call. A kind with no probe here fails the test,
// so the generator cannot carry a fault that injects nothing.
func TestEveryChaosFaultActs(t *testing.T) {
	// What a call into the fault gets: an error, or no reply at all
	// (errNoReply) while virtual time stands still.
	errNoReply := errors.New("no reply")
	want := map[OpKind]error{
		OpCrash:     netsim.ErrUnreachable,
		OpPartition: netsim.ErrUnreachable,
		OpFence:     netsim.ErrFenced,
		OpFreeze:    errNoReply,
		OpSlow:      errNoReply,
	}
	heals := map[OpKind]bool{OpRestart: true, OpThaw: true, OpUnfence: true, OpHeal: true, OpClearSlow: true}

	emitted := map[OpKind]Step{}
	for _, cfg := range []Config{{}, {Overload: true}} {
		for seed := int64(1); seed <= 32; seed++ {
			for _, st := range Generate(seed, cfg).Steps {
				if st.Kind == OpAdvance || st.Kind == OpBurst || heals[st.Kind] {
					continue
				}
				if _, ok := emitted[st.Kind]; !ok {
					emitted[st.Kind] = st
				}
			}
		}
	}
	kinds := make([]OpKind, 0, len(emitted))
	for k := range emitted {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	for _, kind := range kinds {
		st := emitted[kind]
		expect, ok := want[kind]
		if !ok {
			t.Errorf("%s: no probe for this fault kind (first emitted as %q)", kind, st)
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			c, err := wls.New(wls.Options{Servers: 3, WithAdmin: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			h := &Harness{Cluster: c, State: newState()}
			// A partition is probed across its link; a server fault from
			// the admin server, which no schedule faults.
			from, to := "admin", st.A
			if st.B != "" {
				from, to = st.A, st.B
			}
			probe := func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				before := c.Clock().Now()
				_, err := h.Server(from).Node().Call(ctx, h.Server(to).Addr(), wire.Frame{Kind: wire.KindRequest})
				if errors.Is(err, context.DeadlineExceeded) && c.Clock().Now().Equal(before) {
					return errNoReply
				}
				return err
			}
			if err := probe(); err != nil {
				t.Fatalf("before %q: %s -> %s: %v", st, from, to, err)
			}
			h.apply(st)
			if err := probe(); !errors.Is(err, expect) {
				t.Errorf("after %q: %s -> %s got %v, want %v", st, from, to, err, expect)
			}
			heal := fault{kind: st.Kind, a: st.A, b: st.B}.heal()
			h.apply(heal)
			if err := probe(); err != nil {
				t.Errorf("after %q healed by %q: %s -> %s: %v", st, heal, from, to, err)
			}
			if len(h.violations) > 0 {
				t.Errorf("harness: %v", h.violations)
			}
		})
	}
}
