package netsim

// Stats reports how many frames have entered the fabric, requests and
// responses alike.
func (n *Network) Stats() (sent int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent
}
