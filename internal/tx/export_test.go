package tx

// HasBranch reports whether a branch exists for txID.
func (m *Manager) HasBranch(txID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.branches[txID]
	return ok
}

// Lookup returns the in-flight transaction with the given id.
func (m *Manager) Lookup(id string) (*Tx, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.active[id]
	return t, ok
}

// State returns the current state.
func (t *Tx) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}
