package chaostest

import (
	"fmt"
)

// SweepResult aggregates a multi-seed sweep.
type SweepResult struct {
	Runs []*Result
}

// Failures returns the failing runs.
func (s *SweepResult) Failures() []*Result {
	var out []*Result
	for _, r := range s.Runs {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Faults totals the fault events injected across the sweep.
func (s *SweepResult) Faults() int {
	n := 0
	for _, r := range s.Runs {
		n += r.Faults
	}
	return n
}

// Sweep runs seeds firstSeed..firstSeed+n-1 with the given per-run
// config. Runs are sequential — each needs the virtual clock to itself —
// and every run is independent, so a failing seed reproduces in isolation
// via its replay command.
func Sweep(firstSeed int64, n int, cfg Config) (*SweepResult, error) {
	out := &SweepResult{}
	for i := 0; i < n; i++ {
		r, err := Run(firstSeed+int64(i), cfg)
		if err != nil {
			return out, fmt.Errorf("chaos: seed %d: %w", firstSeed+int64(i), err)
		}
		out.Runs = append(out.Runs, r)
	}
	return out, nil
}
