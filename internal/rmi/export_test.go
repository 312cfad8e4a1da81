package rmi

import (
	"wls/internal/cluster"
)

// Members returns the cached cluster view.
func (c *ExternalClient) Members() []cluster.MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cluster.MemberInfo(nil), c.members...)
}

// Deployed reports whether the named service is deployed locally.
func (r *Registry) Deployed(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.services[name]
	return ok
}

// The resilience settings the tests drive a breaker through.
const (
	BreakerThreshold = breakerThreshold
	BreakerCooldown  = breakerCooldown
)
