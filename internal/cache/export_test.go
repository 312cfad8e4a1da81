package cache

// Peek returns the cached value without loading (even if stale by TTL it is
// not returned): tests read staleness windows through it.
func (c *Cache) Peek(key string) ([]byte, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !c.fresh(e) {
		return nil, 0, false
	}
	return append([]byte(nil), e.value...), e.version, true
}
