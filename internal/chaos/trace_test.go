package chaos

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wls"
	"wls/internal/rmi"
	"wls/internal/trace"
)

// runTracedScenario boots a seeded virtual-clock cluster at 100% sampling,
// drives a fixed call sequence with a mid-stream crash (forcing failover
// retries), and returns the spans it produced. Everything the spans record
// — IDs, timestamps, parentage, annotations — derives from the seed and
// the virtual clock, so two runs with the same seed must agree byte for
// byte.
func runTracedScenario(t *testing.T, seed int64) []trace.SpanData {
	t.Helper()
	c, err := wls.New(wls.Options{Servers: 3, Seed: seed, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, s := range c.Servers {
		s.Registry().Register(&rmi.Service{
			Name: "Echo",
			Methods: map[string]rmi.MethodSpec{
				"echo": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
					return call.Args, nil
				}},
			},
		})
	}
	c.Settle(3)

	stub := c.Servers[0].Stub("Echo",
		rmi.WithPolicy(rmi.NewRoundRobin()), rmi.WithIdempotent("echo"))
	tr := c.Servers[0].Tracer()
	invoke := func(name string) {
		ctx, root := tr.StartRoot(context.Background(), name, trace.KindClient)
		_, err := stub.Invoke(ctx, "echo", []byte(name))
		// Calls racing the failure detector may fail outright; the error is
		// part of the trace, not a test failure.
		root.SetError(err)
		root.Finish()
	}
	for i := 0; i < 8; i++ {
		invoke(fmt.Sprintf("op-%02d", i))
	}
	c.Crash("server-2")
	for i := 8; i < 16; i++ {
		invoke(fmt.Sprintf("op-%02d", i))
	}
	c.Settle(2)
	return c.Traces().Snapshot()
}

// TestTraceDumpDeterministic: at 100% sampling the canonical dump is a
// pure function of (seed, config).
func TestTraceDumpDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		first := trace.CanonicalDump(runTracedScenario(t, seed))
		second := trace.CanonicalDump(runTracedScenario(t, seed))
		if first == "" {
			t.Fatalf("seed %d: empty trace dump", seed)
		}
		if first != second {
			t.Errorf("seed %d: trace dump not reproducible:\n--- first\n%s--- second\n%s", seed, first, second)
		}
	}
}

// TestTraceFailoverAttemptsDistinct: after the crash, retried calls must
// show each failover attempt as its own child span, with exactly the
// terminal attempt marked final.
func TestTraceFailoverAttemptsDistinct(t *testing.T) {
	spans := runTracedScenario(t, 1)
	byParent := map[trace.SpanID][]trace.SpanData{}
	for _, d := range spans {
		byParent[d.Parent] = append(byParent[d.Parent], d)
	}
	annotation := func(d trace.SpanData, key string) string {
		for _, a := range d.Annotations {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	failedOver := 0
	for _, d := range spans {
		if !strings.HasPrefix(d.Name, "rmi.call ") {
			continue
		}
		var attempts []trace.SpanData
		for _, ch := range byParent[d.ID] {
			if ch.Name == "rmi.attempt" {
				attempts = append(attempts, ch)
			}
		}
		if len(attempts) < 2 {
			continue
		}
		failedOver++
		seen := map[trace.SpanID]bool{}
		finals := 0
		for _, a := range attempts {
			if seen[a.ID] {
				t.Errorf("call %s: duplicate attempt span id %s", d.ID, a.ID)
			}
			seen[a.ID] = true
			if annotation(a, "final") == "true" {
				finals++
			} else if a.Error == "" {
				t.Errorf("call %s: non-final attempt %s carries no error", d.ID, a.ID)
			}
		}
		if finals != 1 {
			t.Errorf("call %s: %d attempts marked final, want exactly 1", d.ID, finals)
		}
	}
	if failedOver == 0 {
		t.Fatal("no traced call failed over despite the crash; scenario lost its teeth")
	}
}
