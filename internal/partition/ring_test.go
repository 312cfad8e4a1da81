package partition

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("server-%d", i+1)
	}
	return out
}

// Same (seed, members) must produce byte-identical rings — placement is a
// pure function every server computes independently.
func TestRingDeterminism(t *testing.T) {
	for _, n := range []int{1, 3, 16, 64} {
		cfg := Config{Seed: 42}
		a := New(cfg, names(n))
		b := New(cfg, names(n))
		if !reflect.DeepEqual(a.points, b.points) || !reflect.DeepEqual(a.members, b.members) {
			t.Fatalf("n=%d: identical inputs produced different rings", n)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("n=%d: fingerprints differ", n)
		}
		// Input order and duplicates must not matter.
		shuffled := append([]string(nil), names(n)...)
		for i := len(shuffled)/2 - 1; i >= 0; i-- {
			j := len(shuffled) - 1 - i
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		shuffled = append(shuffled, shuffled[0])
		c := New(cfg, shuffled)
		if c.Fingerprint() != a.Fingerprint() {
			t.Fatalf("n=%d: member order/duplicates changed the ring", n)
		}
	}
	// A different seed must move placement.
	a := New(Config{Seed: 1}, names(8))
	b := New(Config{Seed: 2}, names(8))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different seeds produced identical rings")
	}
}

// Adding one server to N must move ≈ K/(N+1) keys and nothing else; keys
// that stay must keep their exact owner (minimal movement).
func TestRingMinimalMovement(t *testing.T) {
	const sample = 20000
	for _, n := range []int{8, 16, 32} {
		cfg := Config{Seed: 7}
		old := New(cfg, names(n))
		grown := New(cfg, names(n+1))
		frac := MovedFraction(old, grown, sample)
		ideal := 1 / float64(n+1)
		if frac > 2/float64(n) {
			t.Fatalf("n=%d→%d: moved %.4f of keys, above the 2/N=%.4f bound", n, n+1, frac, 2/float64(n))
		}
		if frac < ideal/3 {
			t.Fatalf("n=%d→%d: moved only %.4f of keys (ideal %.4f): new server starves", n, n+1, frac, ideal)
		}
		// Every key that moved must have moved TO the new server; a key
		// moving between old servers would be non-minimal.
		keys := make([]string, 5000)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
		}
		for _, mv := range PlanMoves(old, grown, keys) {
			if mv.To != fmt.Sprintf("server-%d", n+1) {
				t.Fatalf("n=%d: key %s moved %s→%s, not to the new server", n, mv.Key, mv.From, mv.To)
			}
		}
		// Leave is symmetric: removing the server must undo exactly those moves.
		back := MovedFraction(grown, old, sample)
		if math.Abs(back-frac) > 1e-9 {
			t.Fatalf("n=%d: join moved %.4f but leave moved %.4f", n, frac, back)
		}
	}
}

// Ownership must be reasonably balanced at VNodes virtual nodes a member.
func TestRingBalance(t *testing.T) {
	r := New(Config{Seed: 3}, names(32))
	share := r.OwnershipShare(50000)
	for m, s := range share {
		if s < 0.4/32 || s > 2.5/32 {
			t.Fatalf("member %s owns %.4f of the key space (ideal %.4f)", m, s, 1.0/32)
		}
	}
}

func TestReplicaSets(t *testing.T) {
	r := New(Config{Seed: 9}, names(10))
	var buf [4]string
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("sess-%d", i)
		reps := r.ReplicasInto(key, buf[:0])
		if len(reps) != Replicas {
			t.Fatalf("key %s: replica set size %d, want %d", key, len(reps), Replicas)
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("key %s: duplicate replica %s", key, m)
			}
			seen[m] = true
		}
		if reps[0] != r.Owner(key) {
			t.Fatalf("key %s: first replica %s != owner %s", key, reps[0], r.Owner(key))
		}
	}
	// Small rings cap the set at the member count.
	r1 := New(Config{}, names(1))
	if got := len(r1.ReplicasInto("k", nil)); got != 1 {
		t.Fatalf("1-member ring returned %d replicas, want 1", got)
	}
	// Empty ring.
	r0 := New(Config{}, nil)
	if r0.Owner("k") != "" || len(r0.ReplicasInto("k", nil)) != 0 {
		t.Fatal("empty ring must own nothing")
	}
}

// The ring lookup is on the request hot path: it must not allocate.
func TestRingLookupZeroAlloc(t *testing.T) {
	r := New(Config{Seed: 5}, names(32))
	var buf [4]string
	var sink string
	if a := testing.AllocsPerRun(1000, func() {
		sink = r.Owner("session-abc-123")
	}); a != 0 {
		t.Fatalf("Owner allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		reps := r.ReplicasInto("session-abc-123", buf[:0])
		sink = reps[0]
	}); a != 0 {
		t.Fatalf("ReplicasInto allocates %.1f/op, want 0", a)
	}
	// The full walk, as secondary placement runs it: every member visited.
	n := 0
	count := func(string) bool { n++; return true }
	if a := testing.AllocsPerRun(1000, func() {
		n = 0
		r.Walk("session-abc-123", count)
	}); a != 0 || n != 32 {
		t.Fatalf("Walk allocates %.1f/op and visits %d of 32 members, want 0 and 32", a, n)
	}
	_ = sink
}

// Walk visits every member exactly once, the replica set first, and stops
// when told to — on a ring past the 256 members it tracks on the stack, too.
func TestRingWalk(t *testing.T) {
	for _, size := range []int{1, 10, 300} {
		r := New(Config{Seed: 3}, names(size))
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("k-%d", i)
			var order []string
			r.Walk(key, func(m string) bool { order = append(order, m); return true })
			seen := map[string]bool{}
			for _, m := range order {
				if seen[m] {
					t.Fatalf("size %d key %s: %s visited twice", size, key, m)
				}
				seen[m] = true
			}
			if len(order) != size {
				t.Fatalf("size %d key %s: visited %d members", size, key, len(order))
			}
			if reps := r.ReplicasInto(key, nil); !slices.Equal(reps, order[:len(reps)]) {
				t.Fatalf("size %d key %s: replicas %v are not the walk's first %v", size, key, reps, order[:len(reps)])
			}
			visited := 0
			r.Walk(key, func(string) bool { visited++; return false })
			if visited != 1 {
				t.Fatalf("size %d: walk went on after yield returned false (%d visits)", size, visited)
			}
		}
	}
}
