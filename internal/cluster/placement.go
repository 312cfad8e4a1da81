package cluster

import "slices"

// Picker is the §3.2 secondary-placement rule: "organizes the candidates
// into a logical ring and looks for the first one in the desired
// replication group that is on a different machine". A walk of the
// session key's consistent-hash ring feeds it the candidates (Offer); it
// ranks each one, best first:
//
//  1. a member of the self's preferred replication groups, in priority
//     order, on another machine;
//  2. any member on another machine;
//  3. a member on the self's machine — its copy still survives a server
//     crash, and no copy survives nothing.
//
// The first candidate of the best rank seen wins. The picker never picks
// the self, the server to avoid, or a name missing from the live view, and
// it allocates nothing.
type Picker struct {
	self  MemberInfo
	live  []MemberInfo
	avoid string
	pick  string
	rank  int // pick's; past the co-located rank while there is none
}

// NewPicker starts a placement for self among live — the members offering
// the replicated service, in name order as Member.OffersOf returns them —
// that never picks avoid ("" avoids nobody). Only self's Name, Machine and
// PreferredSecondaryGroups are read.
func NewPicker(self MemberInfo, live []MemberInfo, avoid string) Picker {
	return Picker{self: self, live: live, avoid: avoid, rank: len(self.PreferredSecondaryGroups) + 2}
}

// Offer considers the live member called name, the walk's next candidate,
// and reports whether a later candidate could still be picked instead: a
// walk may stop once it is false.
func (p *Picker) Offer(name string) bool {
	if name == p.self.Name || name == p.avoid {
		return p.rank > 0
	}
	for i := range p.live {
		c := &p.live[i]
		if c.Name != name {
			continue
		}
		groups := p.self.PreferredSecondaryGroups
		rank := len(groups) // another machine
		if c.Machine == p.self.Machine {
			rank++
		} else if i := slices.Index(groups, c.ReplicationGroup); i >= 0 {
			rank = i
		}
		if rank < p.rank {
			p.pick, p.rank = c.Name, rank
		}
		break
	}
	return p.rank > 0
}

// Pick returns the chosen secondary ("" when no candidate qualified).
func (p *Picker) Pick() string { return p.pick }
