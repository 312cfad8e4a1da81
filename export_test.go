package wls

import (
	"time"

	"wls/internal/rmi"
	"wls/internal/webtier"
)

// ExternalClient creates a tightly-coupled external client (§2.2) with its
// own endpoint, bootstrapped from the first server.
func (c *Cluster) ExternalClient(addr string, refresh time.Duration) *rmi.ExternalClient {
	node := c.fix.net.Endpoint(addr)
	return rmi.NewExternalClient(node, c.fix.clock, refresh, c.Servers[0].endpoint.Addr())
}

// LeaseManagerAddrs returns the lease-manager addresses for singleton
// hosting (empty without WithAdmin).
func (c *Cluster) LeaseManagerAddrs() []string {
	return append([]string(nil), c.fix.admins...)
}

// ExternalLB builds a Fig 3 appliance router.
func (c *Cluster) ExternalLB(addr string) *webtier.ExternalLB {
	return webtier.NewExternalLB(c.fix.net.Endpoint(addr), rmi.MemberView{Member: c.Servers[0].member}, nil)
}
