//go:build !race

package servlet

import (
	"strconv"
	"testing"

	"wls/internal/partition"
	"wls/internal/simtest"
	"wls/internal/wire"
)

// TestReplicaUpdateAllocsPerChangedValue pins the secondary's steady state:
// applying a delta to keys the replica already holds allocates exactly one
// string per value that changed — never the key again — and nothing at all
// when the values are unchanged.
func TestReplicaUpdateAllocsPerChangedValue(t *testing.T) {
	const replicaID = "0123456789abcdef"
	sm := &SessionManager{attrKeys: wire.NewInterner(0), sessions: make(map[string]*sessState)}
	var gen uint64
	delta := func(n, item string) []byte {
		gen++
		e := wire.NewEncoder(64)
		e.Raw(replicaID)
		e.Uint64(gen)
		e.Int(2)
		e.String("n")
		e.String(n)
		e.String("item")
		e.String(item)
		return e.Bytes()
	}
	if err := sm.handleUpdateBatch(delta("0", "sku-0")); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	deltas := make([][]byte, 0, runs+1)
	for i := 1; i <= runs+1; i++ {
		deltas = append(deltas, delta(strconv.Itoa(1000+i), "sku-"+strconv.Itoa(1000+i)))
	}
	i := 0
	changed := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(deltas[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if changed != 2 {
		t.Fatalf("update of 2 existing keys with new values: %.1f allocs, want 2 (one per changed value)", changed)
	}
	rec := &sm.sessions[replicaID].rec
	if got := rec.attrs[rec.find("n")].value; got != strconv.Itoa(1000+runs+1) {
		t.Fatalf("replica holds n=%q after the updates", got)
	}

	same := make([][]byte, 0, runs+1)
	for i := 0; i <= runs; i++ {
		same = append(same, delta("7", "sku-7"))
	}
	if err := sm.handleUpdateBatch(delta("7", "sku-7")); err != nil {
		t.Fatal(err)
	}
	i = 0
	unchanged := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(same[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if unchanged != 0 {
		t.Fatalf("update with unchanged values: %.1f allocs, want 0", unchanged)
	}
}

// TestPlacementAllocFree pins secondary placement at zero allocations, in
// both orders and with a secondary to avoid: it runs for every new session,
// every promotion, every failed ship and every ring-epoch re-check.
func TestPlacementAllocFree(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 4,
		ReplicationGroups: []string{"gA", "gB"}, PreferredSecondaryGroups: []string{"gB"}})
	t.Cleanup(f.Stop)
	var engines []*Engine
	for _, s := range f.Servers {
		engines = append(engines, NewEngine(s.Registry, Config{}))
	}
	f.Settle(2)
	sm := engines[0].sessions
	vs := partition.NewViews(partition.Config{Seed: 3})
	partition.Attach(vs, f.Servers[0].Member, ServiceName)
	for _, order := range []string{"name", "ring"} {
		if order == "ring" {
			sm.SetPartitions(vs)
		}
		// server-2 and server-4 are the preferred group gB; avoiding server-2
		// sends the walk past its best candidate.
		for _, avoid := range []string{"", "server-2"} {
			var p placement
			if a := testing.AllocsPerRun(200, func() {
				p = sm.chooseSecondary("0123456789abcdef", 0, avoid)
			}); a != 0 {
				t.Errorf("%s order, avoid %q: chooseSecondary allocates %.1f/op, want 0", order, avoid, a)
			}
			if sec := sm.secName(p.sec()); sec != "server-2" && sec != "server-4" || sec == avoid {
				t.Errorf("%s order, avoid %q: picked %q, want the other gB server", order, avoid, sec)
			}
		}
	}
}
