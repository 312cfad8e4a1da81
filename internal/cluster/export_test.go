package cluster

import (
	"time"
)

// DefaultConfig returns production-flavored defaults for the given cluster
// name.
func DefaultConfig(name string) Config {
	return Config{
		Name:              name,
		HeartbeatInterval: 100 * time.Millisecond,
		FailureTimeout:    350 * time.Millisecond,
	}
}

// Config returns the cluster configuration.
func (m *Member) Config() Config { return m.cfg }

// AlivePeers returns the live view excluding self.
func (m *Member) AlivePeers() []MemberInfo {
	all := m.Alive()
	self := m.Self().Name
	out := all[:0]
	for _, mi := range all {
		if mi.Name != self {
			out = append(out, mi)
		}
	}
	return out
}
