package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig shrinks a workload so four of them fit a tier-1 budget: fewer
// sessions to create, a short warm-up, one segment.
func smokeConfig(t *testing.T, wl workload, seconds float64) config {
	wl.sessions = min(wl.sessions, 1024)
	wl.warm = min(wl.warm, 100)
	return config{wl: wl, seed: 1, seconds: seconds, segments: 1, conns: 2, floor: flushFloor, dataDir: t.TempDir()}
}

// TestTracedSmoke runs every workload traced for 300 ms and checks what
// must hold at any length: no failed request, every per-layer metric
// present and finite, the self rows reconciling with the end-to-end mean,
// and each workload leaving idle the layers it claims to leave idle.
func TestTracedSmoke(t *testing.T) {
	zero := map[string][]string{
		"echo-hot":         {"fs.syncs_per_req", "session.replicate_calls_per_req", "kv.applies_per_req", "store.read_us"},
		"session-wide":     {"fs.syncs_per_req", "kv.applies_per_req", "store.read_us"},
		"checkout-durable": {"session.replicate_calls_per_req", "store.read_us"},
		"shop-mix":         {},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := runTraced(smokeConfig(t, wl, 0.6))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			for _, m := range perLayer {
				got, ok := res.Metrics[m.name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.unit {
					t.Errorf("%s: %+v (present %v), want a finite value in %s", m.name, got, ok, m.unit)
				}
			}
			sum := v("bench.unattributed_us")
			for _, name := range selfRows {
				sum += v(name)
			}
			if e2e := v("bench.e2e_mean_us"); math.Abs(sum-e2e) > 0.01*e2e {
				t.Errorf("self rows + unattributed = %.3f us, end-to-end mean = %.3f us", sum, e2e)
			}
			for _, name := range append(zero[wl.name], "bench.spans_dropped", "webtier.failovers_per_kreq") {
				if v(name) != 0 {
					t.Errorf("%s = %v, want 0 on %s", name, v(name), wl.name)
				}
			}
			switch wl.name {
			case "session-wide":
				if got := v("session.replicate_calls_per_req"); got < 0.99 {
					t.Errorf("session.replicate_calls_per_req = %v, want >= 0.99", got)
				}
			case "checkout-durable":
				if got := v("fs.syncs_per_req"); got < 4 {
					t.Errorf("fs.syncs_per_req = %v, want >= 4", got)
				}
			case "shop-mix":
				// Two transaction-log appends per checkout, one checkout per
				// checkoutEvery requests of the loop connections.
				if got := v("tx.log_appends_per_req") / 2 * float64(wl.checkoutEvery); got < 0.7 || got > 1.1 {
					t.Errorf("%.2f checkouts per %d requests, want one", got, wl.checkoutEvery)
				}
			}
		})
	}
}

// TestUntracedSmoke checks the end-to-end side: two segments, every metric
// positive (the contract forbids a metric that can read 0).
func TestUntracedSmoke(t *testing.T) {
	cfg := smokeConfig(t, workloads[0], 0.4)
	cfg.segments = 2
	res, err := runUntraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("failed %d of %d", res.Failed, res.Attempted)
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.name]; !(got.Value > 0) || got.Unit != m.unit {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
}

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// tables from drifting apart.
func TestContractMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range c.Workloads {
		got = append(got, "workload "+w.Name)
	}
	for _, m := range c.EndToEnd {
		got = append(got, "e2e "+m.Name+" "+m.Unit)
	}
	for _, m := range c.PerLayer {
		got = append(got, "layer "+m.Name+" "+m.Unit)
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.name)
	}
	for _, m := range endToEnd {
		want = append(want, "e2e "+m.name+" "+m.unit)
	}
	for _, m := range perLayer {
		want = append(want, "layer "+m.name+" "+m.unit)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("BENCHMARK.json lists:\n%s\nthe program reports:\n%s", g, w)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare one pair of each kind: within the
// bound, worse than the bound, and too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps map[string][]float64) string {
		var buf bytes.Buffer
		for _, wl := range workloads {
			for i, v := range rps[wl.name] {
				line := suiteLine{Workload: wl.name, Seed: int64(i + 1), Result: result{Correct: true, Attempted: 1,
					Metrics: map[string]metric{"throughput_rps": {v, "req/s"}}}}
				b, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(b, '\n'))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	contract := write("contract.json", nil)
	if err := os.WriteFile(contract, []byte(`{"end_to_end":[{"name":"throughput_rps","unit":"req/s","better":"higher","bound":0.08}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := write("old.jsonl", map[string][]float64{"echo-hot": steady, "session-wide": steady, "checkout-durable": steady, "shop-mix": steady})
	new := write("new.jsonl", map[string][]float64{"echo-hot": steady, "session-wide": {80, 81, 79, 80, 80},
		"checkout-durable": {70, 130, 100, 85, 115}, "shop-mix": {110, 111, 109, 110, 110}})
	var out bytes.Buffer
	regressed, err := compareFiles(&out, contract, old, new)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 20% throughput drop was not reported as a regression")
	}
	for wl, verdict := range map[string]string{"echo-hot": "ok", "session-wide": "regressed", "checkout-durable": "unresolved", "shop-mix": "ok"} {
		found := false
		for _, row := range strings.Split(out.String(), "\n") {
			if strings.Contains(row, wl) && strings.HasSuffix(strings.TrimSpace(row), verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", wl, verdict, out.String())
		}
	}
}
