package metrics

import (
	"time"
)

// MeanDuration returns the mean as a time.Duration.
func (h *Histogram) MeanDuration() time.Duration { return time.Duration(h.Mean()) }
