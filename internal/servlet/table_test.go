package servlet

import (
	"fmt"
	"math/rand"
	"testing"

	"wls/internal/attrs"
	"wls/internal/cluster"
)

// tableKeys are the ids table tests draw from: few enough that the table
// stays at 16 or 32 slots, so probe runs meet and wrap past the last slot,
// and sharing a 14-byte prefix, as test ids do.
var tableKeys = func() (keys [24][cluster.IDLen]byte) {
	for i := range keys {
		copy(keys[i][:], fmt.Sprintf("table-session-%02d", i))
	}
	return keys
}()

// tableOps runs ops against a table and a map model — each op a byte: its
// top two bits pick put (0, 1), del (2) or a full check (3), the rest a
// key, which every op then gets — and fails t at the first difference. It returns how many dels removed an
// entry from the middle of a run that wraps past the table's last slot.
func tableOps(t *testing.T, ops []byte) (wrappedDels int) {
	var tab sessionTable
	model := map[[cluster.IDLen]byte]*sessState{}
	for step, op := range ops {
		key := tableKeys[int(op&0x3f)%len(tableKeys)]
		switch op >> 6 {
		case 0, 1: // put: a new state, in place of the one held if any
			st := newSessState(key[:], attrs.Empty, uint64(step))
			tab.put(st)
			model[key] = st
		case 2:
			if midWrappedRun(&tab, key) {
				wrappedDels++
			}
			if got, want := tab.del(key), model[key]; got != want {
				t.Fatalf("step %d: del %s removed %p, model %p", step, key, got, want)
			}
			delete(model, key)
		}
		if got, want := tab.get(key), model[key]; got != want {
			t.Fatalf("step %d: get %s found %p, model %p", step, key, got, want)
		}
		if op>>6 == 3 || step == len(ops)-1 {
			checkTable(t, step, &tab, model)
		}
	}
	return wrappedDels
}

// checkTable holds tab to model: its length, every key's membership, and
// an each that visits every entry exactly once.
func checkTable(t *testing.T, step int, tab *sessionTable, model map[[cluster.IDLen]byte]*sessState) {
	t.Helper()
	if tab.len() != len(model) {
		t.Fatalf("step %d: len %d, model %d", step, tab.len(), len(model))
	}
	for _, key := range tableKeys {
		if got, want := tab.get(key), model[key]; got != want {
			t.Fatalf("step %d: get %s found %p, model %p", step, key, got, want)
		}
	}
	seen := map[*sessState]int{}
	tab.each(func(st *sessState) { seen[st]++ })
	if len(seen) != len(model) {
		t.Fatalf("step %d: each visited %d entries, model holds %d", step, len(seen), len(model))
	}
	for key, st := range model {
		if seen[st] != 1 {
			t.Fatalf("step %d: each visited %s %d times", step, key, seen[st])
		}
	}
}

// midWrappedRun reports whether key sits in tab with entries on both sides
// of it in a run that wraps from the last slot to the first.
func midWrappedRun(tab *sessionTable, key [cluster.IDLen]byte) bool {
	if tab.get(key) == nil {
		return false
	}
	mask := len(tab.slots) - 1
	i := tab.find(&key)
	if tab.slots[(i-1)&mask] == nil || tab.slots[(i+1)&mask] == nil {
		return false
	}
	start, end := i, i
	for tab.slots[(start-1)&mask] != nil {
		start = (start - 1) & mask
	}
	for tab.slots[(end+1)&mask] != nil {
		end = (end + 1) & mask
	}
	return start > end
}

// TestSessionTableModel runs seeded random sequences of puts, gets and
// dels against a map model, and needs some dels in the middle of a wrapped
// run among them: the backward shift must leave every other key findable.
func TestSessionTableModel(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 400)
		for i := range ops {
			// Mostly puts and dels, so the table fills and empties.
			ops[i] = byte(rng.Intn(4))<<6 | byte(rng.Intn(len(tableKeys)))
			if ops[i]>>6 == 3 && rng.Intn(4) > 0 {
				ops[i] &^= 0x40 // a check a quarter as often as the others
			}
		}
		wrapped += tableOps(t, ops)
	}
	if wrapped == 0 {
		t.Fatal("no del fell in the middle of a wrapped run: the test does not reach the case it is for")
	}
	t.Logf("%d dels from the middle of a wrapped run", wrapped)
}

// BenchmarkSessionTableGrow times one growth of a table holding 32 768
// states, the session-wide workload's count on each server: every entry
// rehashed into twice the slots, under the manager's lock.
func BenchmarkSessionTableGrow(b *testing.B) {
	const n = 32768
	var tab sessionTable
	tab.resize(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		var key [cluster.IDLen]byte
		rng.Read(key[:])
		tab.put(newSessState(key[:], attrs.Empty, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.resize(2 * len(tab.slots) * 3 / 4)
		b.StopTimer()
		tab.resize(n) // back to the size it started at, untimed
		b.StartTimer()
	}
}

// FuzzSessionTable drives tableOps with any ops.
func FuzzSessionTable(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x80, 0xc0})
	f.Add([]byte{0x05, 0x15, 0x25, 0x35, 0x85, 0x95, 0xc0})
	fill := make([]byte, 0, 64)
	for i := 0; i < len(tableKeys); i++ {
		fill = append(fill, byte(i))
	}
	for i := 0; i < len(tableKeys); i += 3 {
		fill = append(fill, 0x80|byte(i))
	}
	f.Add(append(fill, 0xc0))
	f.Fuzz(func(t *testing.T, ops []byte) { tableOps(t, ops) })
}
