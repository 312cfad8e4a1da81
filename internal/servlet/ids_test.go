package servlet

import (
	"bytes"
	"slices"
	"testing"

	"wls/internal/simtest"
)

// TestIDsAreUnguessable draws 10⁶ record ids from crypto/rand through two
// managers and a third on one of their servers restarted, and finds no
// duplicate, no run a counter would leave — consecutive ids of a manager
// share no prefix of 4 bytes, which 10⁶ pairs of random ids reach with
// odds of 1 in 4 000 — and every bit set in half the ids, ± 1 %.
func TestIDsAreUnguessable(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	t.Cleanup(f.Stop)
	managers := []*SessionManager{
		NewEngine(f.Servers[0].Registry, Config{}).sessions,
		NewEngine(f.Servers[1].Registry, Config{}).sessions,
	}
	f.Crash("server-2")
	managers = append(managers, NewEngine(f.Restart("server-2").Registry, Config{}).sessions)

	const n = 1_000_000
	ids := make([][16]byte, n)
	var ones [128]int
	for i := range ids {
		id := managers[i%len(managers)].newID()
		if len(id) != 16 {
			t.Fatalf("id %d is %d bytes", i, len(id))
		}
		ids[i] = id
		for b := range ones {
			ones[b] += int(id[b/8] >> (b % 8) & 1)
		}
		if prev := i - len(managers); prev >= 0 {
			if p := commonPrefix(ids[prev], ids[i]); p >= 4 {
				t.Fatalf("ids %d and %d of one manager share %d leading bytes: %x, %x", prev, i, p, ids[prev], ids[i])
			}
		}
	}
	for b, c := range ones {
		if c < n/2-n/100 || c > n/2+n/100 {
			t.Fatalf("bit %d is set in %d of %d ids", b, c, n)
		}
	}
	slices.SortFunc(ids, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) })
	for i := 1; i < n; i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("id %x drawn twice", ids[i])
		}
	}
}

func commonPrefix(a, b [16]byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
