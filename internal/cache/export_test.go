package cache

// Peek returns the cached value without loading (even if stale by TTL it is
// not returned): tests read staleness windows through it.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !c.fresh(e) {
		return nil, false
	}
	return append([]byte(nil), e.value...), true
}
