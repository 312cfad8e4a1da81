package gossip

import (
	"time"
)

// SetDelay delays every delivery by d on the bus clock.
func (b *InMemory) SetDelay(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delay = d
}
