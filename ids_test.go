package wls_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"wls"
	"wls/internal/partition"
	"wls/internal/servlet"
)

// TestSeededClustersDrawTheSameIDs: on the virtual clock a server draws its
// record ids from Options.Seed and its name, so two clusters built with one
// seed name their sessions alike, and a join moves the same live sessions
// (E33's moved fraction, at small N); another seed draws other ids.
func TestSeededClustersDrawTheSameIDs(t *testing.T) {
	run := func(seed int64) (ids []string, moved string) {
		c, err := wls.New(wls.Options{Servers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		for _, s := range c.Servers {
			countHandler(s)
		}
		c.Settle(3)
		for i := 0; i < 64; i++ {
			resp := c.Servers[i%len(c.Servers)].Web.ServeCtx(context.Background(), "/n", "", nil)
			ck, err := servlet.DecodeCookie(resp.Cookie)
			if err != nil || len(ck.ID) != 16 {
				t.Fatalf("seed %d, session %d: cookie %+v (%v)", seed, i, ck, err)
			}
			ids = append(ids, ck.ID)
		}
		old := c.Servers[0].Partitions().Current().Ring
		joined, err := c.AddServer()
		if err != nil {
			t.Fatal(err)
		}
		countHandler(joined)
		c.Settle(4)
		now := c.Servers[0].Partitions().Current().Ring
		n := 0
		for _, id := range ids {
			if owner(old, id) != owner(now, id) {
				n++
			}
		}
		return ids, fmt.Sprintf("%d of %d live sessions moved, ring %x", n, len(ids), now.Fingerprint())
	}
	a, movedA := run(7)
	b, movedB := run(7)
	if !slices.Equal(a, b) || movedA != movedB {
		t.Fatalf("seed 7 twice: ids equal %v, join %q vs %q", slices.Equal(a, b), movedA, movedB)
	}
	other, _ := run(8)
	for i := range a {
		if a[i] == other[i] {
			t.Fatalf("seeds 7 and 8 drew the same id for session %d", i)
		}
	}
	t.Log("seed 7: " + movedA)
}

// owner is the first member of key's walk: the server that owns it.
func owner(r *partition.Ring, key string) (o string) {
	r.Walk(key, func(m string) bool { o = m; return false })
	return o
}
