package wsdl

import (
	"context"
	"fmt"

	"wls/internal/attrs"
	"wls/internal/wire"
)

// Conversation migration (§4): "Conversation migration is needed to
// support primary/secondary replication as well as to optimize the overall
// system around its most active participants. Since a conversation may
// have several simultaneous users, migration requires that conversations
// be implemented as on-demand singleton services."
//
// Migrate moves the server side of a conversation from one port to
// another: the state is exported, imported at the destination, and the
// source forgets it. In a full deployment the on-demand singleton lease
// for the conversation (see internal/singleton.OnDemand) serializes
// concurrent migrations and lets other participants locate the new owner;
// here the mechanics of the move itself are implemented and the client is
// re-bound explicitly with Rebind.

// Export serializes a server-side conversation's identity and state.
func (p *Port) Export(convID string) ([]byte, error) {
	p.mu.Lock()
	c, ok := p.convs[convID]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoConversation, convID)
	}
	if c.role != RoleServer {
		return nil, fmt.Errorf("wsdl: only server-side conversations migrate")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := wire.NewEncoder(128)
	e.String(c.ID)
	e.String(c.Service)
	attrs.AppendMap(e, c.state)
	return e.Bytes(), nil
}

// Import installs an exported conversation on this port. The service must
// already be offered here.
func (p *Port) Import(data []byte) (*Conversation, error) {
	d := wire.NewDecoder(data)
	id, service := d.String(), d.String()
	list, err := attrs.Read(d, false)
	if err != nil {
		return nil, fmt.Errorf("wsdl: import: %w", err)
	}
	state := attrs.Map(list)
	p.mu.Lock()
	def, ok := p.services[service]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("wsdl: service %s not offered on this port", service)
	}
	c := &Conversation{ID: id, Service: service, role: RoleServer, port: p, def: def, state: state}
	p.convs[id] = c
	p.mu.Unlock()
	p.persist(c)
	return c, nil
}

// Drop removes a conversation from this port without notifying the peer
// (used by the source side of a migration).
func (p *Port) Drop(convID string) { p.dropConv(convID) }

// Migrate moves the server side of convID from p to the port at dstAddr,
// which must offer the same service. It uses the destination's RMI surface
// so the two ports may be on different servers.
func (p *Port) Migrate(ctx context.Context, convID, dstAddr string) error {
	data, err := p.Export(convID)
	if err != nil {
		return err
	}
	if _, err := p.invoke(ctx, dstAddr, "import", data); err != nil {
		return err
	}
	p.Drop(convID)
	return nil
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
