package chaostest

import (
	"fmt"
	"strings"
)

// Report renders the sweep verdict; failing seeds include their replay
// command and fault timeline.
func (s *SweepResult) Report() string {
	var b strings.Builder
	fails := s.Failures()
	fmt.Fprintf(&b, "chaos sweep: %d seeds, %d faults injected, %d failing\n",
		len(s.Runs), s.Faults(), len(fails))
	for _, r := range fails {
		fmt.Fprintf(&b, "\nseed %d FAILED — replay with:\n  %s\n", r.Seed, r.Replay())
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
		b.WriteString(indent(r.Timeline, "  "))
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
