package ejb

// ID returns the conversation id.
func (h *Handle) ID() string { return h.id }

// Secondary reports the current secondary of the replication pair.
func (h *Handle) Secondary() string { return h.route.Load()[1] }
