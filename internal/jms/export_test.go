package jms

import (
	"wls/internal/metrics"
)

// Metrics returns the broker's metric registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }
