package servlet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wls/internal/rmi"
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

// TestSessionIDIsTheRecordsID: Session.ID is a string over the state's key,
// not a copy, so it must read the record's id however the list changes,
// while the string alone keeps the state alive (ejb's turn table keys on
// it), and across Park and Unpark.
func TestSessionIDIsTheRecordsID(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	t.Cleanup(f.Stop)
	const service = "idtest"
	var sms []*SessionManager
	for _, s := range f.Servers {
		sm := NewReplicatedManager(s.Registry, service)
		s.Registry.Register(&rmi.Service{Name: service, Methods: sm.ReplicaMethods(map[string]rmi.MethodSpec{})})
		sms = append(sms, sm)
	}
	f.Settle(2)
	ctx := context.Background()
	sm := sms[0]
	s, seeded := sm.Create(ctx)
	if !seeded {
		t.Fatal("the new record's secondary did not take its seed")
	}
	id := s.ID
	want := string([]byte(id)) // a copy, over nothing the record holds
	for i := 0; i < 100; i++ {
		s.Set("n", strconv.Itoa(i))
		s.Set(fmt.Sprintf("k%d", i%7), strings.Repeat("v", i))
		if !sm.Flush(ctx, s) {
			t.Fatalf("write %d: the secondary did not take it", i)
		}
		if s.ID != want {
			t.Fatalf("after write %d the session's id reads %x, want %x", i, s.ID, want)
		}
	}
	sm.Close(s)

	p, ok := sm.Park(want)
	if !ok {
		t.Fatal("the primary record did not park")
	}
	if ids := sm.Primaries(); len(ids) != 0 {
		t.Fatalf("a parked record is still listed: %x", ids)
	}
	sm.Unpark(p)
	s, _ = sm.Open(ctx, []byte(want))
	if s == nil || s.ID != want || s.Get("n") != "99" {
		t.Fatalf("after Park and Unpark the record reads id %x, n=%q", s.ID, s.Get("n"))
	}
	if ids := sm.Primaries(); len(ids) != 1 || ids[0] != want {
		t.Fatalf("primaries %x, want [%x]", ids, want)
	}
	id = s.ID
	sm.Close(s)

	sm.Remove(want)
	sms[1].Remove(want)
	if sm.ResidentSessions() != 0 || sms[1].ResidentSessions() != 0 {
		t.Fatal("a removed record is still resident")
	}
	runtime.GC()
	runtime.GC()
	garbage := make([][]byte, 1<<10) // reuse any memory the GC freed
	for i := range garbage {
		garbage[i] = bytes.Repeat([]byte{0xa5}, 64)
	}
	if id != want {
		t.Fatalf("an id held past its record's removal reads %x, want %x", id, want)
	}
	runtime.KeepAlive(garbage)
}
