package wls

import (
	"fmt"
	"sort"

	"wls/internal/partition"
)

// Partitions returns the server's ring views (nil on the admin server).
func (s *Server) Partitions() *partition.Views { return s.parts }

// AddServer boots one more managed server into the running cluster
// (scale-out). The new server takes the next free address index, joins
// membership, and advertises the full service set; its arrival bumps the
// ring epoch on every server as heartbeats propagate (call Settle to
// converge). Names stay unique but may skip a number when the admin server
// occupies an index.
func (c *Cluster) AddServer() (*Server, error) {
	i := c.nextIdx
	name := fmt.Sprintf("server-%d", i+1)
	s, err := c.newServer(i, name)
	if err != nil {
		return nil, err
	}
	c.nextIdx++
	c.Servers = append(c.Servers, s)
	return s, nil
}

// PartitionReport is one server's view of the ring for the admin surface
// (wlsadmin partitions, /admin/partitions).
type PartitionReport struct {
	Server string `json:"server"`
	// Epoch and Fingerprint identify the view this server currently acts
	// on; converged servers agree on the fingerprint (epochs are local).
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	Members     int    `json:"members"`
	// Share maps each ring member to its estimated fraction of the key
	// space, as sampled by this server.
	Share map[string]float64 `json:"share,omitempty"`
	// RingMoves counts primary sessions this server re-shipped because an
	// epoch change moved their placement (cumulative).
	RingMoves uint64 `json:"ring_moves"`
	// SessionsBehind is the in-flight rebalance backlog: local primary
	// sessions not yet re-checked against the current epoch.
	SessionsBehind int `json:"sessions_behind"`
	// Resident is the total sessions (primary or replica) held here.
	Resident int `json:"resident_sessions"`
}

// PartitionReport snapshots this server's ring state. sample sets how many
// synthetic keys to walk for the ownership shares (0 skips them).
func (s *Server) PartitionReport(sample int) PartitionReport {
	st := s.Web.Sessions().PartitionStats()
	r := PartitionReport{
		Server:         s.Name,
		Epoch:          st.Epoch,
		Fingerprint:    fmt.Sprintf("%016x", st.Fingerprint),
		Members:        st.Members,
		RingMoves:      st.RingMoves,
		SessionsBehind: st.SessionsBehind,
		Resident:       st.Resident,
	}
	if sample > 0 {
		r.Share = s.parts.Current().Ring.OwnershipShare(sample)
	}
	return r
}

// PartitionsReport collects every managed server's ring view, sorted by
// server name — the payload behind `wlsadmin partitions`.
func (c *Cluster) PartitionsReport(sample int) []PartitionReport {
	out := make([]PartitionReport, 0, len(c.Servers))
	for _, s := range c.Servers {
		out = append(out, s.PartitionReport(sample))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}
