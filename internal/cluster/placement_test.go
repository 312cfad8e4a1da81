package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wls/internal/cluster"
	"wls/internal/partition"
)

// --- Secondary placement (§3.2) ---------------------------------------------

func mi(name, machine, group string, preferred ...string) cluster.MemberInfo {
	return cluster.MemberInfo{Name: name, Machine: machine, ReplicationGroup: group, PreferredSecondaryGroups: preferred}
}

// walk places self's secondary among live, offered in the order a ring
// walk would offer them: live's own order.
func walk(self cluster.MemberInfo, live []cluster.MemberInfo, avoid string) string {
	p := cluster.NewPicker(self, live, avoid)
	for _, c := range live {
		if !p.Offer(c.Name) {
			break
		}
	}
	return p.Pick()
}

func TestRingPrefersConfiguredGroup(t *testing.T) {
	self := mi("s1", "m1", "gA", "gB")
	cands := []cluster.MemberInfo{
		self,
		mi("s2", "m1", "gB"), // preferred group but same machine
		mi("s3", "m2", "gA"), // different machine, wrong group
		mi("s4", "m3", "gB"), // preferred group, different machine ← winner
	}
	if sec := walk(self, cands, ""); sec != "s4" {
		t.Fatalf("sec = %q, want s4", sec)
	}
}

// Among candidates of one rank the walk's order decides: the first one
// offered wins, wherever self falls in the walk.
func TestRingScanStartsAfterSelf(t *testing.T) {
	self := mi("s2", "m2", "g", "g")
	s1, s3 := mi("s1", "m1", "g"), mi("s3", "m3", "g")
	if sec := walk(self, []cluster.MemberInfo{self, s3, s1}, ""); sec != "s3" {
		t.Fatalf("sec = %q, want s3 (first offered after self)", sec)
	}
	if sec := walk(self, []cluster.MemberInfo{s1, self, s3}, ""); sec != "s1" {
		t.Fatalf("sec = %q, want s1 (first offered)", sec)
	}
}

func TestRingFallsBackToAnyOtherMachine(t *testing.T) {
	self := mi("s1", "m1", "gA", "gZ") // nobody in gZ
	cands := []cluster.MemberInfo{
		self,
		mi("s2", "m1", "gA"), // same machine
		mi("s3", "m2", "gA"), // ← winner (different machine, no group match)
	}
	if sec := walk(self, cands, ""); sec != "s3" {
		t.Fatalf("sec = %q, want s3", sec)
	}
}

// With no other machine in the cluster the secondary shares the primary's
// machine: a co-located copy still survives a server crash.
func TestRingNoCandidateOnOtherMachine(t *testing.T) {
	self := mi("s1", "m1", "g", "g")
	cands := []cluster.MemberInfo{self, mi("s2", "m1", "g")}
	if sec := walk(self, cands, ""); sec != "s2" {
		t.Fatalf("sec = %q, want the co-located s2", sec)
	}
	if sec := walk(self, cands, "s2"); sec != "" {
		t.Fatalf("sec = %q avoiding the only candidate, want none", sec)
	}
}

func TestRingGroupPriorityOrder(t *testing.T) {
	self := mi("s1", "m1", "gA", "gB", "gC")
	cands := []cluster.MemberInfo{
		self,
		mi("s2", "m2", "gC"),
		mi("s3", "m3", "gB"), // gB outranks gC even though s2 is earlier in ring
	}
	if sec := walk(self, cands, ""); sec != "s3" {
		t.Fatalf("sec = %q, want s3 (gB preferred over gC)", sec)
	}
}

// TestE09RingPlacement is the E09 property test from DESIGN.md: for random
// cluster configurations, a server to avoid, and a seeded ring's walk of a
// key feeding the picker, the chosen secondary
// is (a) never self, avoid or a stranger, (b) chosen whenever any other
// server is live, (c) on self's machine only when no other machine has a
// candidate, and (d) in the most-preferred group that has a candidate on
// another machine.
func TestE09RingPlacement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		groups := []string{"gA", "gB", "gC"}
		var cands []cluster.MemberInfo
		var names []string
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("s%02d", i))
			cands = append(cands, cluster.MemberInfo{
				Name:             names[i],
				Machine:          fmt.Sprintf("m%d", rng.Intn(4)),
				ReplicationGroup: groups[rng.Intn(len(groups))],
			})
		}
		self := cands[rng.Intn(n)]
		self.PreferredSecondaryGroups = append([]string(nil), groups[:rng.Intn(len(groups)+1)]...)
		avoid := ""
		if rng.Intn(3) == 0 {
			avoid = names[rng.Intn(n)]
		}
		eligible := func(match func(cluster.MemberInfo) bool) bool {
			for _, c := range cands {
				if c.Name != self.Name && c.Name != avoid && match(c) {
					return true
				}
			}
			return false
		}
		otherMachine := func(c cluster.MemberInfo) bool { return c.Machine != self.Machine }

		ringOrder := cluster.NewPicker(self, cands, avoid)
		partition.New(partition.Config{Seed: seed}, names).Walk(fmt.Sprintf("key-%d", seed), ringOrder.Offer)
		for _, name := range []string{walk(self, cands, avoid), ringOrder.Pick()} {
			var sec cluster.MemberInfo
			for _, c := range cands {
				if c.Name == name && name != self.Name && name != avoid {
					sec = c
				}
			}
			if sec.Name == "" {
				if name != "" || eligible(func(cluster.MemberInfo) bool { return true }) {
					return false
				}
				continue
			}
			if !otherMachine(sec) && eligible(otherMachine) {
				return false
			}
			for _, g := range self.PreferredSecondaryGroups {
				if eligible(func(c cluster.MemberInfo) bool { return otherMachine(c) && c.ReplicationGroup == g }) {
					if sec.ReplicationGroup != g || !otherMachine(sec) {
						return false
					}
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
