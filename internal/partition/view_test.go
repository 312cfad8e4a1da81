package partition

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/vclock"
)

func TestViewsEpochsAndPrev(t *testing.T) {
	vs := NewViews(Config{Seed: 1})
	if vs.Current() != nil {
		t.Fatal("view published before first Update")
	}
	var seen []uint64
	var prev *Ring // the ring the last change replaced
	vs.OnChange(func(old, new *View) {
		seen = append(seen, new.Epoch)
		if new.Epoch == 1 && old != nil {
			t.Errorf("epoch 1 must have no predecessor")
		}
		if new.Epoch > 1 && (old == nil || old.Epoch != new.Epoch-1) {
			t.Errorf("epoch %d: old is not the previous view", new.Epoch)
		}
		if old != nil {
			prev = old.Ring
		}
	})

	vs.Update([]string{"a", "b"})
	vs.Update([]string{"b", "a", "a"}) // same set, different order+dup: no new epoch
	vs.Update([]string{"a", "b", "c"})
	vs.Update([]string{"a", "b", "c"})
	vs.Update([]string{"a", "c"})

	v := vs.Current()
	if v == nil || v.Epoch != 3 {
		t.Fatalf("want epoch 3, got %+v", v)
	}
	if prev == nil || prev.Len() != 3 || v.Ring.Len() != 2 {
		t.Fatalf("old/new rings not handed over: prev=%v ring=%v", prev, v.Ring)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Fatalf("subscribers saw epochs %v, want [1 2 3]", seen)
	}
}

// Attach must track live members offering the service: joins and failures
// rebuild the ring, and independently attached servers converge on the
// same fingerprint.
func TestAttachTracksMembership(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 1)
	cfg := cluster.Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 350 * time.Millisecond}
	const svc = "wls.http"
	var members []*cluster.Member
	var views []*Views
	for i := 1; i <= 4; i++ {
		m := cluster.NewMember(cfg, clk, bus, cluster.MemberInfo{
			Name: fmt.Sprintf("s%d", i),
			Addr: fmt.Sprintf("10.0.0.%d:7001", i),
		})
		m.Advertise(svc)
		m.Start()
		t.Cleanup(m.Stop)
		vs := NewViews(Config{Seed: 5})
		Attach(vs, m, svc)
		members = append(members, m)
		views = append(views, vs)
	}
	settle := func(rounds int) {
		for i := 0; i < rounds; i++ {
			clk.Advance(100 * time.Millisecond)
			time.Sleep(2 * time.Millisecond)
		}
	}
	settle(4)

	for i, vs := range views {
		v := vs.Current()
		if v == nil || v.Ring.Len() != 4 {
			t.Fatalf("server %d: ring has %v members, want 4", i+1, v)
		}
		if fp, want := v.Ring.Fingerprint(), views[0].Current().Ring.Fingerprint(); fp != want {
			t.Fatalf("server %d ring diverged: %016x vs %016x", i+1, fp, want)
		}
	}
	epochBefore := views[0].Current().Epoch
	var prev atomic.Pointer[Ring] // the ring the leave replaced
	views[0].OnChange(func(old, new *View) { prev.Store(old.Ring) })

	members[3].Stop()
	settle(6)

	v := views[0].Current()
	if v.Ring.Len() != 3 {
		t.Fatalf("after failure ring has %d members, want 3", v.Ring.Len())
	}
	if v.Epoch <= epochBefore {
		t.Fatalf("failure did not bump epoch: %d -> %d", epochBefore, v.Epoch)
	}
	if p := prev.Load(); p == nil || p.Len() != 4 {
		t.Fatalf("the replaced ring should hold 4 members, has %v", p)
	}
	if got := MovedFraction(prev.Load(), v.Ring, 4000); got > 2.0/3 {
		t.Fatalf("single leave moved %.3f of keys", got)
	}
}

// A server that starts after its peers hears them answer its announcement
// before Attach builds a ring, so the first ring it publishes is the full
// one: a subscriber registered before Attach never sees the joiner alone on
// a ring while peers are alive, and the clock is never advanced.
func TestAttachFirstRingIsTheFullRing(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, 1)
	cfg := cluster.Config{Name: "c", HeartbeatInterval: 100 * time.Millisecond, FailureTimeout: 350 * time.Millisecond}
	const svc = "wls.http"
	var views []*Views
	for i := 1; i <= 5; i++ {
		name := fmt.Sprintf("s%d", i)
		m := cluster.NewMember(cfg, clk, bus, cluster.MemberInfo{Name: name})
		m.Start() // the order wls.newServer uses: join, deploy, attach
		t.Cleanup(m.Stop)
		m.Advertise(svc)
		vs := NewViews(Config{Seed: 5})
		peersUp := i - 1
		vs.OnChange(func(_, v *View) {
			if peersUp > 0 && v.Ring.Len() == 1 {
				t.Errorf("%s published a one-member ring at epoch %d with %d peers alive", name, v.Epoch, peersUp)
			}
		})
		Attach(vs, m, svc)
		if v := vs.Current(); v.Epoch != 1 || v.Ring.Len() != i {
			t.Fatalf("%s: first ring is epoch %d over %v, want epoch 1 over %d members", name, v.Epoch, v.Ring.Members(), i)
		}
		views = append(views, vs)
	}
	for i, vs := range views {
		if fp, want := vs.Current().Ring.Fingerprint(), views[0].Current().Ring.Fingerprint(); fp != want {
			t.Fatalf("server %d ring diverged with zero Advance: %016x vs %016x", i+1, fp, want)
		}
	}
}
