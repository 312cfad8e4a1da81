// Package partition implements deterministic consistent-hash partitioning
// for the clustered tier: a seeded ring of virtual nodes that maps any
// string key to an owner and an ordered replica set, an epoch-versioned
// RingView published off the cluster membership layer, and a rebalance
// planner that computes the minimal key movement a membership change
// implies.
//
// The paper's §2.1 session-concentration story places each session on a
// primary with one cookie-named secondary; that works for a 3-server
// cluster but gives no account of *which* server should own which key as
// the tier grows to dozens of servers. The ring supplies that account:
// placement is a pure function of (seed, member set, key), every server
// computes the same answer independently, and a single join or leave moves
// only the ≈K/N keys whose arcs the change touches — the property the
// rebalance planner measures and the E33 experiment pins.
package partition

import (
	"fmt"
	"sort"
)

const (
	// VNodes is the number of virtual nodes per member: enough to keep
	// each member's share of the key space within a small factor of even.
	VNodes = 64
	// Replicas is the replica-set size ReplicasInto fills: a primary and
	// one secondary, the §3.2 pair.
	Replicas = 2
)

// Config seeds a ring.
type Config struct {
	// Seed perturbs vnode placement so distinct clusters (or tests) get
	// distinct but reproducible rings.
	Seed int64
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member int32 // index into members
}

// Ring is an immutable consistent-hash ring over a member set. Build one
// with New; lookups are lock-free and allocation-free.
type Ring struct {
	cfg     Config
	members []string // sorted, unique
	points  []point  // sorted by hash
}

// New builds a ring over the given member names. The input is copied,
// sorted and de-duplicated, so the ring is a pure function of
// (cfg, member set): identical inputs yield byte-identical rings on every
// server that computes them.
func New(cfg Config, members []string) *Ring {
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	uniq := ms[:0]
	for _, m := range ms {
		if len(uniq) == 0 || uniq[len(uniq)-1] != m {
			uniq = append(uniq, m)
		}
	}
	ms = uniq
	r := &Ring{cfg: cfg, members: ms}
	r.points = make([]point, 0, len(ms)*VNodes)
	for i, m := range ms {
		h := mix(hashString(m), uint64(cfg.Seed))
		for v := 0; v < VNodes; v++ {
			h = splitmix64(h)
			r.points = append(r.points, point{hash: h, member: int32(i)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // total order even on hash collisions
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the sorted member set (shared; treat as read-only).
//
//wls:nolint unreached -- test hook: TestClusterPartitionWiring
func (r *Ring) Members() []string { return r.members }

// Fingerprint folds the whole point table into one comparable value: two
// rings agree on every placement iff their fingerprints agree (up to hash
// collision), which lets servers cheaply detect that their independently
// computed rings have converged.
func (r *Ring) Fingerprint() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range r.points {
		h = mix(h, p.hash)
		h = mix(h, uint64(p.member))
	}
	return h
}

// Owner returns the member owning key ("" on an empty ring). This is the
// ring-lookup hot path: a hash and a binary search, no allocation.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	idx := r.search(hashString(key))
	return r.members[r.points[idx].member]
}

// search returns the index of the first point at or clockwise-after h
// (wrapping to 0 past the last point).
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0
	}
	return lo
}

// Walk calls yield with every member once, clockwise from key — the owner
// first, then each next distinct member — until yield returns false. It is
// the order secondary placement walks (cluster.Picker), and it allocates
// nothing on a ring of up to 256 members.
func (r *Ring) Walk(key string, yield func(member string) bool) {
	if len(r.points) == 0 {
		return
	}
	var small [4]uint64
	seen := small[:]
	if words := (len(r.members) + 63) / 64; words > len(small) {
		seen = make([]uint64, words)
	}
	start := r.search(hashString(key))
	for i, left := 0, len(r.members); left > 0; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if seen[m/64]&(1<<(m%64)) != 0 {
			continue
		}
		seen[m/64] |= 1 << (m % 64)
		left--
		if !yield(r.members[m]) {
			return
		}
	}
}

// ReplicasInto fills out with the key's replica set — the first
// Replicas members of its Walk (fewer when the ring is smaller). out is
// truncated and appended to; a caller-provided buffer with sufficient
// capacity makes the lookup allocation-free.
func (r *Ring) ReplicasInto(key string, out []string) []string {
	out = out[:0]
	r.Walk(key, func(m string) bool {
		out = append(out, m)
		return len(out) < Replicas
	})
	return out
}

// OwnershipShare returns each member's share of the key space, estimated
// over sample synthetic keys (admin/report path).
func (r *Ring) OwnershipShare(sample int) map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 || sample <= 0 {
		return out
	}
	h := uint64(0x51afd6ed558ccd25) ^ uint64(r.cfg.Seed)
	for i := 0; i < sample; i++ {
		h = splitmix64(h)
		idx := r.search(h)
		out[r.members[r.points[idx].member]] += 1 / float64(sample)
	}
	return out
}

// String renders a compact description.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{%d members, %d vnodes, seed %d, fp %016x}",
		len(r.members), VNodes, r.cfg.Seed, r.Fingerprint())
}

// ---------------------------------------------------------------------------
// Hashing: FNV-1a over the key bytes, finished through splitmix64 so keys
// with shared prefixes still scatter. Stdlib-only, allocation-free, and
// stable across architectures (the determinism tests pin it).

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return splitmix64(h)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(a, b uint64) uint64 { return splitmix64(a ^ b*0x9e3779b97f4a7c15) }
