package webtier

// peek reads without promoting (observability paths).
func (l *affinityLRU) peek(client string) string {
	if e, ok := l.m[client]; ok {
		return e.server
	}
	return ""
}

func (l *affinityLRU) len() int { return len(l.m) }

// setCap rebounds the table, evicting down if needed.
func (l *affinityLRU) setCap(capacity int) {
	if capacity <= 0 {
		capacity = defaultAffinityCap
	}
	l.cap = capacity
	for len(l.m) > l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.m, victim.client)
	}
}

// SetAffinityCap bounds the sticky-affinity table (default 65536 entries);
// the least-recently-used client is evicted when it fills.
func (lb *ExternalLB) SetAffinityCap(n int) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.affinity.setCap(n)
}

// AffinityLen reports how many clients currently have a sticky entry.
func (lb *ExternalLB) AffinityLen() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.affinity.len()
}

// RecordAffinity inserts a sticky entry directly, as Route would after a
// successful forward (pre-warming and bounded-growth tests).
func (lb *ExternalLB) RecordAffinity(clientID, server string) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.affinity.put(clientID, server)
}

// AffinityOf reports the sticky server for a client ("" if none).
func (lb *ExternalLB) AffinityOf(clientID string) string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.affinity.peek(clientID)
}
