package benchtest

import (
	"fmt"

	"wls/internal/chaostest"
)

func init() {
	register(Experiment{ID: "E28", Title: "Deterministic chaos sweep over the HA stack",
		Source: "§3–5: clustering claims must hold under crashes, partitions, freezes and fencing", Run: runE28})
}

// runE28: drive a block of seeds through the fault generator and report
// per-seed fault counts and invariant violations. Unlike E01–E27 this is
// not a performance shape but a safety sweep: the reproduction target is
// zero violations of the four HA invariants (at-most-one singleton with
// monotone fencing epochs, no lost or doubly-applied committed
// transaction, JMS exactly-once under SAF, replicated-session survival).
// A failing seed prints its one-command replay in the verdict column.
func runE28() *Table {
	t := &Table{ID: "E28", Title: "Deterministic chaos sweep over the HA stack",
		Source:  "§3–5: at-most-one singleton, tx recovery, JMS exactly-once, session survival",
		Columns: []string{"seed", "steps", "faults", "violations", "verdict"},
	}
	res, err := chaostest.Sweep(1, 8, chaostest.Config{})
	if err != nil {
		t.Notes = "sweep aborted: " + err.Error()
		return t
	}
	for _, r := range res.Runs {
		verdict := "ok"
		if r.Failed() {
			verdict = "FAIL — replay: " + r.Replay()
		}
		t.AddRow(r.Seed, len(r.Schedule.Steps), r.Faults, len(r.Violations), verdict)
	}
	t.Notes = fmt.Sprintf("%d seeds, %d faults injected, %d violating seed(s); extended sweep: make chaos",
		len(res.Runs), res.Faults(), len(res.Failures()))
	return t
}
