package wsdl

// Conversations reports the number of live conversation objects on this
// port (both roles).
func (p *Port) Conversations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.convs)
}

// Rebind points the client side of a conversation at the service's new
// location after a migration. (In a full deployment the client discovers
// this through the conversation's on-demand singleton lease; the paper
// also anticipates "a general-purpose biscuit that each side is expected
// to echo to the other".)
func (c *Conversation) Rebind(newPeer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Peer = newPeer
}
