package cluster

// Picker is the §3.2 secondary-placement rule: "organizes the candidates
// into a logical ring and looks for the first one in the desired
// replication group that is on a different machine". The walk feeds it the
// candidates in ring order (Offer, OfferNameOrder); it ranks each one,
// best first:
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
	for i := range p.live {
		if p.live[i].Name == name {
			p.offer(&p.live[i])
			break
		}
	}
	return p.rank > 0
}

// OfferNameOrder offers the live members in name order, from the first one
// after self round to the last one before it: the logical ring when no
// partition ring is attached.
func (p *Picker) OfferNameOrder() {
	start := 0
	for start < len(p.live) && p.live[start].Name <= p.self.Name {
		start++
	}
	for i := 0; i < len(p.live) && p.rank > 0; i++ {
		p.offer(&p.live[(start+i)%len(p.live)])
	}
}

func (p *Picker) offer(c *MemberInfo) {
	if c.Name == p.self.Name || c.Name == p.avoid {
		return
	}
	groups := p.self.PreferredSecondaryGroups
	rank := len(groups) // another machine
	if c.Machine == p.self.Machine {
		rank++
	} else {
		for i, g := range groups {
			if c.ReplicationGroup == g {
				rank = i
				break
			}
		}
	}
	if rank < p.rank {
		p.pick, p.rank = c.Name, rank
	}
}

// Pick returns the chosen secondary ("" when no candidate qualified).
func (p *Picker) Pick() string { return p.pick }
