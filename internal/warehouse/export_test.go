package warehouse

import (
	"wls/internal/metrics"
)

// Metrics exposes the pipeline's counters.
func (e *ETL) Metrics() *metrics.Registry { return e.reg }
