package servlet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wls/internal/attrs"
	"wls/internal/cluster"
)

// shardKeys are the ids the shard model draws from: their first bytes fall
// in two stripes, so the two managers' records share stripes and each
// stripe's shard holds several records of each manager.
var shardKeys = func() (keys [24][cluster.IDLen]byte) {
	for i := range keys {
		keys[i][0] = byte(i%4)*stripes + byte(i%2)
		keys[i][1] = byte(i)
	}
	return keys
}()

// shardOps runs a seeded sequence of puts, gets, removes, parks and
// unparks on sm against a map model, checking the table at every step of
// kind 5: ResidentSessions, Primaries, and an each that visits every
// record exactly once.
func shardOps(t *testing.T, sm *SessionManager, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	model := map[[cluster.IDLen]byte]*sessState{}
	parked := map[[cluster.IDLen]byte]Parked{}
	for step := 0; step < 600; step++ {
		key := shardKeys[rng.Intn(len(shardKeys))]
		id := string(key[:])
		switch rng.Intn(6) {
		case 0: // put, in place of what is held, as a primary or a replica
			if _, out := parked[key]; out {
				continue
			}
			st := newSessState(key[:], attrs.Empty, uint64(step))
			if rng.Intn(2) == 0 {
				st.place.Store(uint64(primaryAt(1, 0)))
			}
			sm.Unpark(Parked{st})
			model[key] = st
		case 1:
			if got, want := sm.get(key[:]), model[key]; got != want {
				t.Fatalf("seed %d step %d: get %x found %p, model %p", seed, step, key, got, want)
			}
		case 2:
			sm.Remove(id)
			delete(model, key)
		case 3:
			p, ok := sm.Park(id)
			st := model[key]
			if want := st != nil && st.placed().primary(); ok != want || ok && p.st != st {
				t.Fatalf("seed %d step %d: park %x = %v, %v; model %p", seed, step, key, p.st, ok, st)
			}
			if ok {
				parked[key] = p
				delete(model, key)
			}
		case 4:
			if p, ok := parked[key]; ok {
				sm.Unpark(p)
				model[key] = p.st
				delete(parked, key)
			}
		case 5:
			checkManager(t, seed, step, sm, model)
		}
	}
	checkManager(t, seed, -1, sm, model)
}

// checkManager holds sm's whole table to model.
func checkManager(t *testing.T, seed int64, step int, sm *SessionManager, model map[[cluster.IDLen]byte]*sessState) {
	t.Helper()
	if got := sm.ResidentSessions(); got != len(model) {
		t.Fatalf("seed %d step %d: %d resident, model %d", seed, step, got, len(model))
	}
	var primaries []string
	for key, st := range model {
		if st.placed().primary() {
			primaries = append(primaries, string(key[:]))
		}
	}
	slices.Sort(primaries)
	if got := sm.Primaries(); !slices.Equal(got, primaries) {
		t.Fatalf("seed %d step %d: primaries %x, model %x", seed, step, got, primaries)
	}
	seen := map[*sessState]int{}
	sm.each(func(st *sessState) { seen[st]++ })
	for key, st := range model {
		if seen[st] != 1 {
			t.Fatalf("seed %d step %d: each visited %x %d times", seed, step, key, seen[st])
		}
	}
	if len(seen) != len(model) {
		t.Fatalf("seed %d step %d: each visited %d records, model holds %d", seed, step, len(seen), len(model))
	}
}

// TestShardedTableModel runs two managers side by side, as parallel
// subtests with their own seeded sequences and models, over ids whose
// stripes they share: one stripe lock guards both managers' shards of it,
// and neither manager may see or lose the other's records. A reader walks
// each manager's table while its sequence runs, so under -race a shard
// touched under another stripe's lock is a reported race.
func TestShardedTableModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			for i := int64(0); i < 2; i++ {
				sm := &SessionManager{}
				t.Run(fmt.Sprint("manager-", i), func(t *testing.T) {
					t.Parallel()
					stop, stopped := make(chan struct{}), make(chan struct{})
					go func() {
						defer close(stopped)
						for k := 0; ; k++ {
							select {
							case <-stop:
								return
							default:
							}
							sm.ResidentSessions()
							sm.Primaries()
							sm.get(shardKeys[k%len(shardKeys)][:])
						}
					}()
					defer func() {
						close(stop)
						<-stopped
					}()
					shardOps(t, sm, 2*seed+i)
				})
			}
		})
	}
}

// BenchmarkSessionShardGrow times what BenchmarkSessionTableGrow times, on
// a manager holding 32 768 sessions: the grow of one shard, about 512
// entries rehashed into twice the slots, under its stripe's lock — the
// longest any lookup of that stripe waits behind a put.
func BenchmarkSessionShardGrow(b *testing.B) {
	const n = 32768
	sm := &SessionManager{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		var key [cluster.IDLen]byte
		rng.Read(key[:])
		sm.Unpark(Parked{newSessState(key[:], attrs.Empty, 0)})
	}
	rl, tab := &recordLocks[0], &sm.shards[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl.mu.Lock()
		tab.resize(2 * len(tab.slots) * 3 / 4)
		rl.mu.Unlock()
		b.StopTimer()
		tab.resize(tab.len()) // back to the size it started at, untimed
		b.StartTimer()
	}
	b.ReportMetric(float64(tab.len()), "entries")
}
