package servlet

import (
	"hash/maphash"

	"wls/internal/cluster"
)

// sessionTable is a manager's resident sessions: an open-addressing set of
// states, each found by its own key, so an id is held once per copy and a
// slot is one pointer. It probes linearly, stays at most 3/4 full and
// deletes by shifting the rest of a run back, so it keeps no tombstones.
// The zero table is empty. A manager holds one per record-lock stripe, each
// under its stripe's lock. It grows in one step, rehashing every entry.
type sessionTable struct {
	slots []*sessState // nil or a power of two
	n     int
}

// tableSeed hashes every table's keys (test ids share long prefixes): no
// table is filled by walking another in slot order, so one seed serves all.
var tableSeed = maphash.MakeSeed()

func (t *sessionTable) len() int { return t.n }

// home is the slot a key hashes to.
func (t *sessionTable) home(key *[cluster.IDLen]byte) int {
	return int(maphash.Bytes(tableSeed, key[:]) & uint64(len(t.slots)-1))
}

// find returns the slot holding key, or the empty slot that ends its run.
func (t *sessionTable) find(key *[cluster.IDLen]byte) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i] != nil && t.slots[i].key != *key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the state of key, or nil.
func (t *sessionTable) get(key [cluster.IDLen]byte) *sessState {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.find(&key)]
}

// put enters st, in place of the state of its key if there is one.
func (t *sessionTable) put(st *sessState) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(t.n + 1)
	}
	i := t.find(&st.key)
	if t.slots[i] == nil {
		t.n++
	}
	t.slots[i] = st
}

// del removes and returns the state of key, or returns nil. Each later
// entry of the run that may sit in the freed slot — its home is not
// between that slot and its own — moves back into it, and the slot it
// leaves is freed in turn, until the run ends.
func (t *sessionTable) del(key [cluster.IDLen]byte) *sessState {
	if t.n == 0 {
		return nil
	}
	i := t.find(&key)
	st := t.slots[i]
	if st == nil {
		return nil
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if (j-t.home(&t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = nil
	t.n--
	return st
}

// each calls fn with every state, once each; fn must not change the table.
func (t *sessionTable) each(fn func(*sessState)) {
	for _, st := range t.slots {
		if st != nil {
			fn(st)
		}
	}
}

// resize rehashes the table into the fewest slots, 2 or more, that hold n
// states at most 3/4 full: most shards of a small table hold one or two.
func (t *sessionTable) resize(n int) {
	size := 2
	for 4*n > 3*size {
		size *= 2
	}
	old := t.slots
	t.slots = make([]*sessState, size)
	for _, st := range old {
		if st != nil {
			t.slots[t.find(&st.key)] = st
		}
	}
}
